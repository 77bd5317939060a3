package core

import (
	"time"

	"prany/internal/wal"
	"prany/internal/wire"
)

// Stage holds the forced writes of one delivery batch. A handler that needs
// a record stable before it may go on (vote, acknowledge, answer) and whose
// message arrived with more messages already read behind it puts the record
// here together with its second half; when the last message of the batch has
// been handled, Flush forces every staged record with one barrier and runs
// the second halves in arrival order with that barrier's error. The rule the
// protocols rest on is untouched — nothing that asserts a record leaves the
// site before the record is stable — but prepares and decisions that arrived
// together share one physical write instead of queueing one fsync behind the
// other on the delivery goroutine.
//
// A Stage belongs to one delivery goroutine and to one incarnation of its
// site (one Env): it needs no lock, and a stage left over from before a crash
// is dropped, never flushed.
type Stage struct {
	env  Env
	recs []wal.Record
	then []staged
}

// OpenStage decides, for a message of transaction txn that came off the
// delivery loop rx, whether its forced writes are staged, and returns the
// stage if so: the caller leaves rx on the message, which is how the engines
// find the stage, and calls Flush once it has dispatched a message with
// rx.More clear. A nil return means the message forces inline, and the
// caller clears the message's Rx. env is the running incarnation of the site.
//
// The stage lives on the loop's own Delivery, so finding it takes no lookup
// and no lock. A message stages when more messages are already read behind it
// or the batch it ends has staged entries. A batch of one — an idle link,
// every delivery under a serial scheduler, every in-process Send (rx nil) —
// therefore forces inline, which is all an unbatched site ever did.
func OpenStage(rx *wire.Delivery, env *Env, txn wire.TxnID) *Stage {
	if rx == nil || env.serial() {
		return nil
	}
	st := stageOf(rx)
	if st == nil || st.env.Dead != env.Dead {
		// The loop's first message here, or its first since a restart: what
		// an earlier incarnation staged died with it, unflushed.
		st = &Stage{env: *env}
		rx.Stage = st
	}
	// Per-transaction order is the inline order: a message about a
	// transaction with a staged entry — or about none in particular, a
	// site-level announcement that may touch any — waits for the flush.
	if len(st.then) > 0 && (txn.IsZero() || st.holds(txn)) {
		st.Flush()
	}
	if !rx.More && len(st.then) == 0 {
		return nil
	}
	return st
}

// stageOf returns the stage a message's deliverer opened for it, or nil when
// the message's forced writes happen inline: rx is the message's Rx field.
func stageOf(rx *wire.Delivery) *Stage {
	if rx == nil {
		return nil
	}
	st, _ := rx.Stage.(*Stage)
	return st
}

// holds reports whether txn has a staged entry.
func (st *Stage) holds(txn wire.TxnID) bool {
	for i := range st.then {
		if st.then[i].txn == txn {
			return true
		}
	}
	return false
}

// Flush forces the staged records with one barrier and runs the staged
// second halves in order. On a site that crashed meanwhile nothing runs: the
// engines the entries point at are dead and their successors recover from
// what was forced.
func (st *Stage) Flush() {
	if len(st.then) == 0 {
		return
	}
	err := st.env.forceAll(st.recs)
	for i := range st.then {
		st.then[i].run(&st.env, err)
	}
	clear(st.recs)
	clear(st.then)
	st.recs, st.then = st.recs[:0], st.then[:0]
}

// stagedOp names the second half a staged entry runs.
type stagedOp uint8

const (
	opPrepared   stagedOp = iota // Participant.prepared
	opDecided                    // Participant.decided
	opVoteLogged                 // Coordinator.voteLogged
	opSend                       // fan msgs out (the acceptor's replies)
)

// staged is the second half of a handler that was split at its forced write:
// which continuation, and the few values it needs from the first half. It is
// a plain struct in a reused slice, not a closure, so staging allocates
// nothing in the steady state and an inline force allocates nothing at all.
type staged struct {
	op      stagedOp
	p       *Participant
	c       *Coordinator
	t       *ptxn
	txn     wire.TxnID
	peer    wire.SiteID
	outcome wire.Outcome
	start   time.Time
	writes  []wal.Update
	msgs    []wire.Message
}

// run executes the second half with the outcome of the force that covered
// its records. It does nothing on a dead site: a crash discards volatile
// state, and the halves of handlers it interrupted with it.
func (s *staged) run(e *Env, err error) {
	if e.dead() {
		return
	}
	switch s.op {
	case opPrepared:
		s.p.prepared(s.txn, s.peer, s.t, err)
	case opDecided:
		s.p.decided(s.txn, s.peer, s.outcome, s.start, err)
	case opVoteLogged:
		s.c.voteLogged(s.txn, s.peer, s.writes, err)
	case opSend:
		if err == nil {
			e.FanoutMsgs(s.msgs)
		}
	}
}

// forceThen makes recs stable and then runs then: at the flush of the
// delivery batch when the message being handled carries a stage (rx is its
// Rx field), and at once, inline, otherwise. The inline case is a batch of
// one through the same two calls.
func (e *Env) forceThen(rx *wire.Delivery, then staged, recs ...wal.Record) {
	if st := stageOf(rx); st != nil {
		st.recs = append(st.recs, recs...)
		st.then = append(st.then, then)
		return
	}
	then.run(e, e.forceAll(recs))
}

// ForceThenSend makes recs stable, in order, and then fans msgs out — or
// sends nothing if the force fails: no message may leave the site ahead of
// the state it asserts. rx and txn come from the message being handled (nil
// and zero outside a handler): inside a delivery batch the force is the
// batch's. It is the acceptor's single emission funnel.
func (e *Env) ForceThenSend(rx *wire.Delivery, txn wire.TxnID, recs []wal.Record, msgs []wire.Message) {
	if len(recs) == 0 {
		e.FanoutMsgs(msgs)
		return
	}
	e.forceThen(rx, staged{op: opSend, txn: txn, msgs: msgs}, recs...)
}
