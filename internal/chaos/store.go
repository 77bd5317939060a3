package chaos

import (
	"prany/internal/wal"
	"prany/internal/wire"
)

// Store is the fault-injecting wal.Store wrapper. Only force-writes reach a
// Store (lazy records stay buffered in the Log), so its faults land exactly
// on the protocol's force points: a BeforeForce crash loses the records, an
// AfterForce crash keeps them, and a WALFail draw is a transient sync error
// the site survives.
type Store struct {
	eng   *Engine
	site  wire.SiteID
	inner wal.Store
}

// Load implements wal.Store.
func (s *Store) Load() ([]wal.Record, error) { return s.inner.Load() }

// Append implements wal.Store, consulting the Byzantine automaton and then
// the plan. An equivocating adversary site swallows its own prepared force —
// the append reports success with nothing written, which also hides the
// force from force-edge crash points at that site (there was no force).
// Note the crash edges return before the bound crasher's work is done — the
// crasher runs on an engine goroutine because Site.Crash waits out the log's
// write in flight, which is this very call.
func (s *Store) Append(recs []wal.Record) error {
	if s.eng.adversarySuppress(s.site, recs) {
		return nil
	}
	switch s.eng.planAppend(s.site, recs) {
	case storeFail:
		return ErrInjectedSyncFailure
	case storeCrashBefore:
		return ErrInjectedCrash
	case storeCrashAfter:
		if err := s.inner.Append(recs); err != nil {
			return err
		}
		s.eng.tripAfterAppend(s.site)
		return nil
	}
	return s.inner.Append(recs)
}

// Rewrite implements wal.Store, consulting the plan at the commit point the
// same way BeginRewrite does.
func (s *Store) Rewrite(recs []wal.Record) error {
	pending, err := s.BeginRewrite(recs)
	if err != nil {
		return err
	}
	return pending.Commit(nil)
}

// BeginRewrite implements wal.Rewriter: staging is never a fault target (an
// abandoned temp file is invisible to recovery), so the plan is consulted at
// Commit — the instant the new image would replace the old one. A
// BeforeCheckpoint verdict abandons the staged image (old image survives); an
// AfterCheckpoint verdict lets the commit land and then fail-stops the site.
func (s *Store) BeginRewrite(recs []wal.Record) (wal.PendingRewrite, error) {
	if rw, ok := s.inner.(wal.Rewriter); ok {
		inner, err := rw.BeginRewrite(recs)
		if err != nil {
			return nil, err
		}
		return &pendingRewrite{s: s, inner: inner}, nil
	}
	staged := make([]wal.Record, len(recs))
	copy(staged, recs)
	return &pendingRewrite{s: s, staged: staged}, nil
}

// pendingRewrite wraps a staged rewrite with the crash-point consultation.
// Exactly one of inner (two-phase inner store) and staged (plain-Rewrite
// fallback) is set.
type pendingRewrite struct {
	s      *Store
	inner  wal.PendingRewrite
	staged []wal.Record
}

func (p *pendingRewrite) Commit(suffix []wal.Record) error {
	switch p.s.eng.planRewrite(p.s.site) {
	case storeCrashBefore:
		p.Abort()
		return ErrInjectedCrash
	case storeCrashAfter:
		if err := p.commitInner(suffix); err != nil {
			return err
		}
		p.s.eng.tripAfterAppend(p.s.site)
		return nil
	}
	return p.commitInner(suffix)
}

func (p *pendingRewrite) commitInner(suffix []wal.Record) error {
	if p.inner != nil {
		return p.inner.Commit(suffix)
	}
	return p.s.inner.Rewrite(append(p.staged, suffix...))
}

func (p *pendingRewrite) Abort() {
	if p.inner != nil {
		p.inner.Abort()
	}
}

// Close implements wal.Store.
func (s *Store) Close() error { return s.inner.Close() }
