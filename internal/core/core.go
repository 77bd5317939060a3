// Package core implements the atomic commit protocols of "Atomicity with
// Incompatible Presumptions" (Al-Houmaily & Chrysanthis, PODS 1999): the
// three two-phase-commit variants participants run (presumed nothing,
// presumed abort, presumed commit), the paper's Presumed Any coordinator
// that integrates them, and the two straw-man integrations — U2PC, which
// violates atomicity (Theorem 1), and C2PC, which is functionally correct
// but retains some transactions forever (Theorem 2).
//
// The engines are passive state machines: they log through a wal.Log, emit
// messages through a callback, and are driven entirely by Handle (inbound
// messages), Commit (the coordinator's two phases), Tick (timeout retries)
// and Recover (post-crash log analysis). Goroutines, timers and sockets
// belong to the site and transport layers, which keeps every protocol rule
// in this package testable with plain function calls.
package core

import (
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"prany/internal/history"
	"prany/internal/metrics"
	"prany/internal/obs"
	"prany/internal/wal"
	"prany/internal/wire"
)

// ErrSiteDown is returned when an engine operation runs after its site
// crashed: a fail-stop site performs no further actions.
var ErrSiteDown = errors.New("core: site is down")

// RM is the resource-manager interface a participant drives. It matches
// kvstore.Store, but any engine with prepare/commit/abort semantics and
// undo/redo write sets fits.
type RM interface {
	// Exec runs a batch of operations for the subtransaction.
	Exec(txn wire.TxnID, ops []wire.Op) ([]string, error)
	// Prepare freezes the subtransaction and returns its write set (for
	// the forced prepared record) and whether it was read-only.
	Prepare(txn wire.TxnID) (writes []wal.Update, readOnly bool, err error)
	// WriteSet returns the subtransaction's current write set without
	// freezing it. One-phase protocols (IYV) force-log it after every
	// operation batch, since each operation acknowledgment is an implicit
	// yes vote.
	WriteSet(txn wire.TxnID) []wal.Update
	// Commit applies the subtransaction; must be idempotent.
	Commit(txn wire.TxnID)
	// Abort rolls the subtransaction back; must be idempotent.
	Abort(txn wire.TxnID)
	// RecoverPrepared re-instates a prepared subtransaction after a crash.
	RecoverPrepared(txn wire.TxnID, writes []wal.Update) error
}

// Scheduler is the hook a deterministic driver (the model checker) installs
// to take goroutine scheduling out of the engines' hands. When Serial
// returns true the engines run every internally-concurrent path inline on
// the calling goroutine: fan-outs emit sequentially in slice order and
// subtransaction execution happens on the delivery path. That trades the
// latency-hiding concurrency for a fully deterministic event order — safe
// only when the driver guarantees handlers never block (no lock conflicts,
// synchronous transport).
type Scheduler interface {
	Serial() bool
}

// Env is what an engine needs from its site: identity, stable log, an
// outbound message sink, and optional history/metrics recording. A zero
// Recorder or Registry disables that channel.
type Env struct {
	ID   wire.SiteID
	Log  *wal.Log
	Send func(wire.Message)
	Hist *history.Recorder
	Met  *metrics.Registry

	// SendBatch, when set, receives multi-message emissions in one call so
	// a batching transport can coalesce same-destination traffic — an ack
	// and the next transaction's vote request to one peer ride one physical
	// frame. Logical message counts (Met.Message) are recorded per message
	// either way; batching only changes the physical framing. Nil falls
	// back to per-message Send.
	SendBatch func([]wire.Message)

	// Dead, when set and true, marks the site crashed: a fail-stop site
	// must not log, send, or record events even if one of its goroutines
	// is still unwinding. Nil means the site never crashes (unit tests).
	Dead *atomic.Bool

	// Sched, when set and serial, pins all engine-internal concurrency to
	// the caller's goroutine for deterministic replay. Nil preserves the
	// production behavior.
	Sched Scheduler

	// Obs, when set, receives per-transaction trace events (timing, not
	// correctness — that is Hist's job). Nil disables tracing at the cost of
	// one branch per hook site; sim, mcheck and the serial scheduler run
	// unchanged with it nil.
	Obs *obs.Recorder
}

func (e *Env) serial() bool { return e.Sched != nil && e.Sched.Serial() }

func (e *Env) dead() bool { return e.Dead != nil && e.Dead.Load() }

// force appends rec and forces the log: a batch of one.
func (e *Env) force(rec wal.Record) error { return e.forceAll([]wal.Record{rec}) }

// forceAll appends recs in order and forces the log once for all of them.
// Each record is one forced write of its protocol: the cost, the force-span
// latency (its duration includes the wait for a shared barrier) and — when
// tracing — the force trace event are recorded per record, so the logical
// counts do not depend on how many records share the physical write.
func (e *Env) forceAll(recs []wal.Record) error {
	if e.dead() {
		return ErrSiteDown
	}
	start := e.now()
	err := e.Log.AppendForceAll(recs)
	for i := range recs {
		if e.Met != nil {
			e.Met.Append(e.ID)
			e.Met.Force(e.ID)
		}
		e.observe(metrics.SpanWALForce, start)
		e.traceSpan(obs.Event{
			Kind: obs.EvForce, Txn: recs[i].Txn, Note: recs[i].Kind.String(),
		}, start)
	}
	return err
}

// now returns the wall-clock instant when either observation channel will
// want it — latency histograms (Met) or trace spans (Obs) — and the zero
// time otherwise, so un-instrumented engines never read the clock.
func (e *Env) now() time.Time {
	if e.Met != nil || e.Obs != nil {
		return time.Now()
	}
	return time.Time{}
}

// observe records the elapsed time since start in span s's histogram.
func (e *Env) observe(s metrics.Span, start time.Time) {
	if e.Met != nil && !start.IsZero() {
		e.Met.Observe(s, time.Since(start))
	}
}

// trace records a trace event if a recorder is attached; the one-branch
// nil fast path DESIGN.md §11 argues from is the check below.
func (e *Env) trace(ev obs.Event) {
	if e.Obs != nil && !e.dead() {
		ev.Site = e.ID
		e.Obs.Record(ev)
	}
}

// traceSpan records a span trace event begun at start.
func (e *Env) traceSpan(ev obs.Event, start time.Time) {
	if e.Obs != nil && !e.dead() && !start.IsZero() {
		ev.Site = e.ID
		e.Obs.RecordSpan(ev, e.Obs.At(start))
	}
}

// appendLazy appends rec without forcing, recording the cost.
func (e *Env) appendLazy(rec wal.Record) error {
	if e.dead() {
		return ErrSiteDown
	}
	_, err := e.Log.Append(rec)
	if e.Met != nil {
		e.Met.Append(e.ID)
	}
	return err
}

// send emits m, recording the cost. Engines must not hold their own mutex
// when calling send: some transports deliver local messages synchronously.
func (e *Env) send(m wire.Message) {
	if e.dead() {
		return
	}
	if e.Met != nil {
		e.Met.Message(e.ID, m.Kind)
	}
	e.Send(m)
}

// event records a history event if a recorder is attached.
func (e *Env) event(ev history.Event) {
	if e.Hist != nil && !e.dead() {
		ev.Site = e.ID
		e.Hist.Record(ev)
	}
}

// The exported Env wrappers below give decider implementations outside this
// package (internal/consensus) the same logging, sending and scheduling
// discipline the engines use — costs recorded, fail-stop respected — without
// exporting the raw hooks.

// AppendRecord appends rec without forcing, with append-cost accounting.
func (e *Env) AppendRecord(rec wal.Record) error { return e.appendLazy(rec) }

// SendMsg emits one message, with message-cost accounting.
func (e *Env) SendMsg(m wire.Message) { e.send(m) }

// RecordEvent records a history event, with the engines' fail-stop
// discipline. A takeover leader fixing a decision is a decide event like any
// coordinator's — the history judge must not mistake it for "never decided".
func (e *Env) RecordEvent(ev history.Event) { e.event(ev) }

// FanoutMsgs sorts msgs deterministically and emits them, batching when the
// transport supports it.
func (e *Env) FanoutMsgs(msgs []wire.Message) {
	sortMsgs(msgs)
	e.fanout(msgs)
}

// SerialSched reports whether a deterministic driver pinned all engine
// concurrency to the calling goroutine (randomized timing must be bypassed).
func (e *Env) SerialSched() bool { return e.serial() }

// sortMsgs orders messages by (destination, transaction, kind). The retry
// and recovery paths collect their re-sends by iterating sharded maps,
// whose order varies run to run; sorting before fanout keeps the emission
// order deterministic, which replay-driven tools (the model checker) and
// stable tests rely on. Per-destination FIFO is unaffected: within one
// destination the sort is by transaction, and each (destination,
// transaction) pair contributes at most one message per retry round.
func sortMsgs(msgs []wire.Message) {
	sort.Slice(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Txn.Coord != b.Txn.Coord {
			return a.Txn.Coord < b.Txn.Coord
		}
		if a.Txn.Seq != b.Txn.Seq {
			return a.Txn.Seq < b.Txn.Seq
		}
		return a.Kind < b.Kind
	})
}

// fanout emits msgs through the environment in one batch when the
// transport supports it, so same-destination traffic — an ack piggybacked
// on the next transaction's vote request, a decision round to every
// participant — can ride one physical frame per peer. Messages to the same
// destination keep their relative order (the per-destination FIFO the
// recovery paths rely on), logical message counts are recorded per message
// exactly as with sequential sends, and fanout returns only once every
// message has been handed to the transport. Under a serial scheduler the
// batch hook is bypassed: the model checker sees one deterministic send per
// message.
func (e *Env) fanout(msgs []wire.Message) {
	if len(msgs) == 0 {
		return
	}
	if e.SendBatch == nil || e.serial() || len(msgs) == 1 {
		for _, m := range msgs {
			e.send(m)
		}
		return
	}
	if e.dead() {
		return
	}
	if e.Met != nil {
		for _, m := range msgs {
			e.Met.Message(e.ID, m.Kind)
		}
	}
	e.SendBatch(msgs)
}
