// Package site assembles a complete database site from the building blocks:
// a write-ahead log, a key-value resource manager, a participant engine for
// the site's commit protocol, a coordinator engine for transactions the site
// initiates, and a transport endpoint. A site is what the paper calls a
// constituent database system of the multidatabase: autonomous, crashable,
// and recoverable from its own stable storage.
package site

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prany/internal/consensus"
	"prany/internal/core"
	"prany/internal/history"
	"prany/internal/kvstore"
	"prany/internal/metrics"
	"prany/internal/obs"
	"prany/internal/transport"
	"prany/internal/wal"
	"prany/internal/wire"
)

// Config describes one site.
type Config struct {
	// ID is the site's unique identifier.
	ID wire.SiteID
	// Proto is the 2PC variant this site runs as a participant.
	Proto wire.Protocol
	// Coordinator configures the site's coordinator engine (strategy,
	// native protocol for U2PC/C2PC, vote timeout).
	Coordinator core.CoordinatorConfig
	// Net connects the site to its peers.
	Net transport.Network
	// PCP is the participants' commit protocol table this site consults
	// when coordinating. Typically shared per deployment.
	PCP *core.PCP
	// LogStore backs the write-ahead log. Nil means a fresh in-memory
	// store; pass a wal.FileStore for durability across processes.
	LogStore wal.Store
	// Hist and Met, when non-nil, receive history events and cost
	// counters.
	Hist *history.Recorder
	Met  *metrics.Registry
	// Obs, when non-nil, receives per-transaction trace events (timing).
	// Nil disables tracing: the engines pay one branch per hook site.
	Obs *obs.Recorder
	// ReadOnlyOpt enables the read-only voting optimization.
	ReadOnlyOpt bool
	// ExecTimeout bounds one remote operation batch. Zero means 2s.
	ExecTimeout time.Duration
	// CheckpointEvery, when positive, checkpoints the log automatically
	// every time that many records have been forced since the last
	// checkpoint. Each checkpoint garbage-collects terminated transactions'
	// records and writes a RecCheckpoint snapshot of the live
	// protocol-table entries, so recovery replays O(active transactions)
	// records instead of O(history). Zero disables automatic checkpointing
	// (explicit Checkpoint calls still work and still snapshot).
	CheckpointEvery int
	// KnownCoordinators lists the sites that may coordinate transactions
	// at this participant. Coordinator-log participants need it for their
	// site-level recovery announcement (they keep no log that could name
	// their coordinators); other protocols ignore it.
	KnownCoordinators []wire.SiteID
	// RM optionally supplies the site's resource manager — for example a
	// nonext.Agent fronting a legacy system that cannot run a commit
	// protocol itself. Nil means a built-in kvstore.Store. Either way the
	// resource manager persists across Crash/Recover (its committed data
	// is durable like a real database's files); only volatile transaction
	// state is dropped, via its Crash method.
	RM ResourceManager
	// Sched, when set, reaches the engines as their scheduling hook: a
	// serial scheduler pins engine-internal concurrency (fan-out
	// goroutines, execution workers) to the delivery goroutine for
	// deterministic replay. Nil means production scheduling.
	Sched core.Scheduler
	// Acceptors, when non-empty, is the deployment's replicated-decision
	// set (2F+1 sites). The site's coordinator then fixes decisions through
	// a consensus.PaxosDecider instead of its local log, its participant
	// escalates stuck inquiries to the acceptors, and — if the site's own
	// ID is in the set — an acceptor engine runs here too.
	Acceptors []wire.SiteID
}

// ResourceManager is what a site drives: the core.RM operations plus the
// fail-stop Crash that drops volatile transaction state. kvstore.Store and
// nonext.Agent both implement it.
type ResourceManager interface {
	core.RM
	Crash()
}

// Site is a running database site.
type Site struct {
	cfg      Config
	logStore wal.Store

	rm ResourceManager // persists across restarts

	mu      sync.Mutex
	log     *wal.Log
	env     *core.Env // the running incarnation's, never modified; env.Dead is dead
	part    *core.Participant
	coord   *core.Coordinator
	acc     *consensus.Acceptor // nil unless this site is in cfg.Acceptors
	dead    *atomic.Bool
	seq     atomic.Uint64
	replies map[wire.TxnID]chan wire.Message
	crashed bool
}

// ErrCrashed is returned by operations on a crashed site.
var ErrCrashed = errors.New("site: site has crashed")

// New starts a fresh site and registers it on the network. If the log store
// already holds records (a restarted process), recovery runs before the
// site serves traffic.
func New(cfg Config) (*Site, error) {
	if cfg.ExecTimeout <= 0 {
		cfg.ExecTimeout = 2 * time.Second
	}
	if cfg.PCP == nil {
		cfg.PCP = core.NewPCP()
	}
	s := &Site{
		cfg:      cfg,
		logStore: cfg.LogStore,
		rm:       cfg.RM,
		replies:  make(map[wire.TxnID]chan wire.Message),
	}
	if s.logStore == nil {
		s.logStore = wal.NewMemStore()
	}
	if s.rm == nil {
		s.rm = kvstore.New()
	}
	if err := s.start(true); err != nil {
		return nil, err
	}
	return s, nil
}

// start (re)builds the volatile half of the site on top of the stable log
// store. recover runs the two recovery procedures when the log is non-empty.
func (s *Site) start(runRecovery bool) error {
	log, err := wal.Open(s.logStore)
	if err != nil {
		return fmt.Errorf("site %s: %w", s.cfg.ID, err)
	}
	if s.cfg.Met != nil {
		met, id := s.cfg.Met, s.cfg.ID
		log.OnSync(func(records int) { met.Sync(id, records) })
	}
	if s.cfg.CheckpointEvery > 0 {
		// The trigger fires under the log lock; the checkpoint itself runs
		// on its own goroutine. Errors (a crash racing the checkpoint) are
		// harmless: the trigger re-arms and a later cadence point retries.
		log.SetCheckpointTrigger(s.cfg.CheckpointEvery, func() {
			go func() { _, _ = s.Checkpoint() }()
		})
	}
	dead := &atomic.Bool{}
	env := core.Env{
		ID:    s.cfg.ID,
		Log:   log,
		Send:  s.cfg.Net.Send,
		Hist:  s.cfg.Hist,
		Met:   s.cfg.Met,
		Dead:  dead,
		Sched: s.cfg.Sched,
		Obs:   s.cfg.Obs,
	}
	// A batching transport gets multi-message emissions whole, so protocol
	// fan-outs and piggybacked acks can share physical frames.
	if bs, ok := s.cfg.Net.(transport.BatchSender); ok {
		env.SendBatch = bs.SendBatch
	}
	part := core.NewParticipant(env, s.cfg.Proto, s.rm, s.cfg.ReadOnlyOpt)
	part.SetCoordinators(s.cfg.KnownCoordinators)
	coordCfg := s.cfg.Coordinator
	var acc *consensus.Acceptor
	if len(s.cfg.Acceptors) > 0 {
		acceptors := s.cfg.Acceptors
		coordCfg.NewDecider = func(env core.Env) core.Decider {
			return consensus.NewPaxosDecider(env, acceptors)
		}
		part.SetAcceptors(acceptors)
		for _, id := range acceptors {
			if id == s.cfg.ID {
				acc = consensus.NewAcceptor(env, acceptors)
				break
			}
		}
	}
	coord := core.NewCoordinator(env, coordCfg, s.cfg.PCP)

	s.mu.Lock()
	s.log = log
	s.env = &env
	s.part = part
	s.coord = coord
	s.acc = acc
	s.dead = dead
	s.crashed = false
	s.mu.Unlock()

	// A (re)starting site is up: clear any crash marker left on the
	// network before traffic resumes.
	if d, ok := s.cfg.Net.(interface {
		SetDown(wire.SiteID, bool)
	}); ok {
		d.SetDown(s.cfg.ID, false)
	}
	s.cfg.Net.Register(s.cfg.ID, s.handle)
	// Coordinator-log participants always run recovery: their (empty) log
	// cannot tell a fresh start from a restart, so the announcement goes
	// out either way; a coordinator with nothing outstanding just echoes.
	recs := log.Records()
	if runRecovery && (len(recs) > 0 || s.cfg.Proto == wire.CL || acc != nil) {
		begun := time.Now()
		// The acceptor rebuilds first: the coordinator's recovery may run
		// learn rounds against the set, and this replica should answer from
		// its replayed state. Its peer sync request doubles as the fresh-boot
		// catch-up (a peer's checkpoint image is the state-transfer artifact).
		if acc != nil {
			if err := acc.Recover(); err != nil {
				return err
			}
		}
		if err := part.Recover(); err != nil {
			return err
		}
		if err := coord.Recover(); err != nil {
			return err
		}
		if s.cfg.Met != nil {
			// The scan size is the recovery-cost claim checkpointing makes:
			// with a cadence it is bounded by the active set plus the
			// records since the last checkpoint, not by history.
			s.cfg.Met.Recovery(s.cfg.ID, len(recs), wal.SuffixAfterCheckpoint(recs))
			s.cfg.Met.Observe(metrics.SpanRecovery, time.Since(begun))
		}
	}
	return nil
}

// handle is the site's inbound handler: dispatch, bracketed by the delivery
// batch's stage. A message that came off a delivery loop with more messages
// already read behind it has its forced writes staged instead of performed —
// the engines find the stage through m.Rx — and when the last message of the
// batch has been dispatched the stage is flushed: one barrier for every
// prepare and decision that arrived together (core.OpenStage has the rules).
func (s *Site) handle(m wire.Message) {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return
	}
	part, coord, acc, env := s.part, s.coord, s.acc, s.env
	s.mu.Unlock()

	rx := m.Rx
	st := core.OpenStage(rx, env, m.Txn)
	if st == nil {
		m.Rx = nil // force inline
	}
	s.dispatch(m, part, coord, acc)
	if st != nil && !rx.More {
		st.Flush()
	}
}

// dispatch hands an inbound message to the right role.
func (s *Site) dispatch(m wire.Message, part *core.Participant, coord *core.Coordinator, acc *consensus.Acceptor) {
	switch m.Kind {
	case wire.MsgExec, wire.MsgPrepare, wire.MsgDecision:
		part.Handle(m)
	case wire.MsgVote, wire.MsgAck:
		coord.Handle(m)
	case wire.MsgInquiry:
		// An inquiry about a transaction this site coordinates goes to the
		// coordinator (it answers from its table, or by presumption once
		// terminated). Otherwise an acceptor site answers from consensus
		// state — a tombstone, or a takeover it runs — never a presumption.
		if acc != nil && !coord.Knows(m.Txn) {
			acc.Handle(m)
			return
		}
		coord.Handle(m)
	case wire.MsgVoteForward, wire.MsgPhase1a, wire.MsgPhase2a,
		wire.MsgPaxosEnd, wire.MsgSyncRequest, wire.MsgSyncState:
		if acc != nil {
			acc.Handle(m)
		}
	case wire.MsgPhase1b, wire.MsgPhase2b:
		// A phase reply answers whichever leader asked: the coordinator's
		// decider or this site's acceptor takeover. Both filter by ballot
		// and transaction, so delivering to both is safe.
		if acc != nil {
			acc.Handle(m)
		}
		coord.Handle(m)
	case wire.MsgRecoverSite:
		// A CL participant's announcement goes to the coordinator role; a
		// coordinator's echo goes to the participant role. Distinguish by
		// the sender's protocol: announcements carry it, echoes do not.
		if m.Proto.ParticipantProtocol() {
			coord.Handle(m)
		} else {
			part.Handle(m)
		}
	case wire.MsgExecReply:
		s.mu.Lock()
		ch := s.replies[m.Txn]
		s.mu.Unlock()
		if ch != nil {
			select {
			case ch <- m:
			default: // late duplicate; the waiter already moved on
			}
		}
	}
}

// ID returns the site identifier.
func (s *Site) ID() wire.SiteID { return s.cfg.ID }

// Proto returns the site's participant protocol.
func (s *Site) Proto() wire.Protocol { return s.cfg.Proto }

// Store exposes the built-in key-value resource manager, or nil when the
// site was configured with a custom RM. Examples and tests read committed
// state through it.
func (s *Site) Store() *kvstore.Store {
	st, _ := s.rm.(*kvstore.Store)
	return st
}

// RM exposes the site's resource manager.
func (s *Site) RM() ResourceManager { return s.rm }

// Coordinator exposes the coordinator engine (for protocol-table metrics).
func (s *Site) Coordinator() *core.Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord
}

// Participant exposes the participant engine.
func (s *Site) Participant() *core.Participant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.part
}

// Acceptor exposes the consensus acceptor engine, or nil when this site is
// not in the deployment's acceptor set.
func (s *Site) Acceptor() *consensus.Acceptor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acc
}

// Log exposes the write-ahead log.
func (s *Site) Log() *wal.Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log
}

// Crash fail-stops the site: volatile state (executing transactions, lock
// tables, unforced log tail, protocol table) is lost; the stable log
// survives. The site stops receiving traffic until Recover.
func (s *Site) Crash() {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return
	}
	s.crashed = true
	s.dead.Store(true)
	log, coord := s.log, s.coord
	s.mu.Unlock()

	if d, ok := s.cfg.Net.(interface {
		SetDown(wire.SiteID, bool)
	}); ok {
		d.SetDown(s.cfg.ID, true)
	}
	// Stop the coordinator's deadline wheel: its waiters wake as if timed
	// out and fail on the dead site; recovery builds a fresh coordinator.
	coord.Stop()
	// The log waits out a write in flight, then fails the forcing callers
	// still queued behind it with ErrLost — the force-writes a real crash
	// loses — before the restart opens a new Log on the same store.
	log.Crash()
	s.rm.Crash()
	if s.cfg.Hist != nil {
		s.cfg.Hist.Record(history.Event{Kind: history.EvCrash, Site: s.cfg.ID})
	}
	s.cfg.Obs.Record(obs.Event{Kind: obs.EvCrash, Site: s.cfg.ID})
}

// Recover restarts a crashed site from its stable log: prepared
// subtransactions are re-instated and inquire, and unfinished coordinated
// transactions are re-driven per Section 4.2.
func (s *Site) Recover() error {
	s.mu.Lock()
	if !s.crashed {
		s.mu.Unlock()
		return fmt.Errorf("site %s: not crashed", s.cfg.ID)
	}
	s.mu.Unlock()
	return s.start(true)
}

// Crashed reports whether the site is down.
func (s *Site) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Tick drives the timeout retries of both roles: participant inquiries and
// coordinator decision re-sends.
func (s *Site) Tick() {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return
	}
	part, coord, acc := s.part, s.coord, s.acc
	s.mu.Unlock()
	part.Tick()
	coord.Tick()
	if acc != nil {
		acc.Tick()
	}
}

// Quiesced reports whether the site holds no protocol state: empty
// protocol table and no pending subtransactions.
func (s *Site) Quiesced() bool {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return false
	}
	part, coord, acc := s.part, s.coord, s.acc
	s.mu.Unlock()
	if acc != nil && !acc.Quiesced() {
		return false
	}
	return coord.PTSize() == 0 && part.Pending() == 0
}

// PTDump snapshots both roles' live protocol tables for the /txns endpoint.
func (s *Site) PTDump() []obs.PTEntry {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return nil
	}
	part, coord := s.part, s.coord
	s.mu.Unlock()
	return append(coord.PTDump(), part.PTDump()...)
}

// Checkpoint garbage-collects the log, keeping only records of transactions
// one of the site's roles still needs, and — when anything stays live —
// writes a RecCheckpoint record snapshotting both roles' protocol tables so
// recovery can treat the rewritten image as its starting point. It returns
// the number of records collected. Operational correctness is exactly the
// guarantee that this eventually collects everything for terminated
// transactions.
func (s *Site) Checkpoint() (int, error) {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return 0, ErrCrashed
	}
	log, part, coord, acc := s.log, s.part, s.coord, s.acc
	s.mu.Unlock()
	begun := time.Now()
	// Snapshot the tables before filtering: an entry whose transaction
	// terminates between here and the filter is merely stale bookkeeping
	// (its records are gone either way); recovery treats the record list,
	// not the entry list, as authoritative.
	entries := append(coord.CheckpointEntries(), part.CheckpointEntries()...)
	if acc != nil {
		entries = append(entries, acc.CheckpointEntries()...)
	}
	n, err := log.Checkpoint(func(rec wal.Record) bool {
		if rec.Kind == wal.KRecCheckpoint {
			return false // each checkpoint writes its own fresh snapshot
		}
		if rec.Role == wal.RoleAcceptor {
			// Undecided consensus state stays; decided transactions collapse
			// to their permanent tombstone.
			return acc != nil && acc.LiveRecord(rec)
		}
		if rec.Role == wal.RoleCoord {
			return coord.Live(rec.Txn)
		}
		return part.Live(rec.Txn)
	}, entries)
	if err == nil && s.cfg.Met != nil {
		s.cfg.Met.Checkpoint(s.cfg.ID, n)
		s.cfg.Met.Observe(metrics.SpanCheckpoint, time.Since(begun))
	}
	return n, err
}
