package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"prany/internal/history"
	"prany/internal/metrics"
	"prany/internal/obs"
	"prany/internal/wal"
	"prany/internal/wire"
)

// Participant is one site's participant-side engine for a single 2PC
// variant (PrN, PrA or PrC). It executes subtransactions against its RM,
// votes, enforces decisions with the variant's logging discipline, and
// recovers in-doubt transactions after a crash by inquiring.
type Participant struct {
	env   Env
	proto wire.Protocol
	rm    RM
	// readOnlyOpt enables the read-only optimization: a participant that
	// performed no updates votes read-only and drops out of phase two.
	readOnlyOpt bool

	// txns is the protocol table, sharded by transaction-id hash; each
	// ptxn's fields are guarded by its shard's lock.
	txns *shardedTable[*ptxn]

	// mu guards the coordinator-log state below (never held together with
	// a shard lock). A CL participant logs nothing, so on restart
	// it cannot name its in-doubt transactions: it announces its recovery
	// to every known coordinator (coords) and fences new work (recovering)
	// until a coordinator echoes that every outstanding decision has been
	// re-driven. enforced is the volatile idempotence guard standing in
	// for page-LSN checks: it keeps decisions re-driven *with* attached
	// write sets from re-applying images over data later transactions have
	// already changed.
	mu            sync.Mutex
	coords        []wire.SiteID
	acceptors     []wire.SiteID
	recovering    bool
	enforced      map[wire.TxnID]bool
	enforcedOrder []wire.TxnID
}

// enforcedGuardLimit bounds the volatile CL idempotence set.
const enforcedGuardLimit = 4096

type ptxnState uint8

const (
	pExecuting ptxnState = iota
	pPrepared            // voted yes; blocked until a decision arrives
)

type ptxn struct {
	state ptxnState
	coord wire.SiteID
	// writes is kept only by CL participants (who have no log to re-read
	// it from) so duplicate prepares can re-ship it.
	writes []wal.Update
	// idleTicks counts Tick rounds an executing subtransaction has sat
	// without progressing to prepared. Participants may abort unilaterally
	// before voting; after idleAbortTicks rounds they do, releasing locks
	// a lost prepare or lost unacknowledged abort would otherwise strand.
	idleTicks int
	// inqTicks counts Tick rounds spent in doubt with no answer. When the
	// deployment has an acceptor set, a participant stuck past
	// inquiryEscalateTicks escalates its inquiry to the acceptors too — the
	// coordinator may be down for good, and with the decision replicated an
	// acceptor can finish it (takeover) instead of leaving the participant
	// blocked. The gate keeps a merely slow coordinator from triggering
	// spurious takeovers.
	inqTicks int
	// startedAt times the entry for the /txns age column. Zero when the
	// site is un-instrumented (Env.now); absent from DebugState so
	// model-checker state hashing stays timestamp-free.
	startedAt time.Time
}

// idleAbortTicks is how many Tick rounds an executing subtransaction may
// idle before the participant aborts it unilaterally.
const idleAbortTicks = 5

// inquiryEscalateTicks is how many unanswered in-doubt Tick rounds a
// participant waits before widening its inquiry to the acceptor set.
const inquiryEscalateTicks = 2

// NewParticipant builds a participant engine. proto must be one of the
// three 2PC variants.
func NewParticipant(env Env, proto wire.Protocol, rm RM, readOnlyOpt bool) *Participant {
	if !proto.ParticipantProtocol() {
		panic("core: " + proto.String() + " is not a participant protocol")
	}
	var onContend func()
	if env.Met != nil {
		met, id := env.Met, env.ID
		onContend = func() { met.ShardWait(id) }
	}
	return &Participant{
		env:         env,
		proto:       proto,
		rm:          rm,
		readOnlyOpt: readOnlyOpt,
		txns:        newShardedTable[*ptxn](onContend),
		enforced:    make(map[wire.TxnID]bool),
	}
}

// SetCoordinators tells a coordinator-log participant which sites may hold
// its outstanding decisions, for the site-level recovery announcement.
// Other protocols ignore it (their own logs name their coordinators).
func (p *Participant) SetCoordinators(ids []wire.SiteID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.coords = append([]wire.SiteID(nil), ids...)
}

// SetAcceptors tells the participant the deployment's acceptor set (the
// replicated-decision sites). In-doubt inquiries escalate there when the
// coordinator stays silent; empty (the default) disables escalation.
func (p *Participant) SetAcceptors(ids []wire.SiteID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acceptors = append([]wire.SiteID(nil), ids...)
}

// Proto returns the participant's protocol.
func (p *Participant) Proto() wire.Protocol { return p.proto }

// Handle processes one inbound message addressed to the participant role:
// EXEC, PREPARE, or DECISION (which includes replies to inquiries).
func (p *Participant) Handle(m wire.Message) {
	switch m.Kind {
	case wire.MsgExec:
		p.handleExec(m)
	case wire.MsgPrepare:
		p.handlePrepare(m)
	case wire.MsgDecision:
		p.handleDecision(m)
	case wire.MsgRecoverSite:
		// The coordinator's echo: every outstanding decision has been
		// re-driven (and, by per-destination FIFO, already delivered);
		// the recovery fence lifts.
		p.mu.Lock()
		p.recovering = false
		p.mu.Unlock()
	}
}

func (p *Participant) handleExec(m wire.Message) {
	p.mu.Lock()
	recovering := p.recovering
	p.mu.Unlock()
	if recovering {
		// CL recovery fence: no new work until the coordinator has
		// re-driven everything outstanding, or images recovered off the
		// wire could race new transactions on the same keys.
		p.env.send(wire.Message{
			Kind: wire.MsgExecReply, Txn: m.Txn, From: p.env.ID, To: m.From,
			Err: "site recovering",
		})
		return
	}
	sh := p.txns.lock(m.Txn)
	t := sh.m[m.Txn]
	if t == nil {
		t = &ptxn{coord: m.From, startedAt: p.env.now()}
		sh.m[m.Txn] = t
	}
	// An explicitly prepared subtransaction is frozen; an IYV one is
	// *implicitly* prepared after every batch and keeps executing.
	if t.state == pPrepared && p.proto != wire.IYV {
		sh.mu.Unlock()
		p.env.send(wire.Message{
			Kind: wire.MsgExecReply, Txn: m.Txn, From: p.env.ID, To: m.From,
			Err: "subtransaction already prepared",
		})
		return
	}
	sh.mu.Unlock()

	// Execution may block on locks held by other (possibly in-doubt)
	// transactions, and the decision that releases them arrives on the
	// same message stream — so operations run on their own goroutine, the
	// participant's worker thread, never on the delivery loop. A serial
	// scheduler (the model checker) promises conflict-free workloads and
	// takes the execution inline for determinism. The delivery handle stays
	// behind with the delivery goroutine that owns it.
	m.Rx = nil
	if p.env.serial() {
		p.execute(m)
		return
	}
	go p.execute(m)
}

// execute runs one operation batch to completion and replies. It is the
// blocking half of handleExec.
func (p *Participant) execute(m wire.Message) {
	results, err := p.rm.Exec(m.Txn, m.Ops)
	reply := wire.Message{Kind: wire.MsgExecReply, Txn: m.Txn, From: p.env.ID, To: m.From, Results: results}
	if err != nil {
		// Execution failure (lock deadlock, bad op): the subtransaction
		// aborts unilaterally; the error travels back so the coordinator
		// aborts the global transaction.
		p.rm.Abort(m.Txn)
		p.dropTxn(m.Txn)
		reply.Results = nil
		reply.Err = err.Error()
		p.env.send(reply)
		return
	}

	if p.proto == wire.IYV {
		// Implicit yes-vote: the redo/undo of everything executed so far
		// is forced *before* the acknowledgment, which makes that
		// acknowledgment a durable promise — the implicit vote. Read-only
		// batches promise nothing and log nothing.
		if writes := p.rm.WriteSet(m.Txn); len(writes) > 0 {
			if ferr := p.env.force(wal.Record{
				Kind: wal.KPrepared, Role: wal.RolePart, Txn: m.Txn, Coord: m.From, Writes: writes,
			}); ferr != nil {
				// The failed force may leave the record in the log buffer,
				// where a later successful force would stabilize it as an
				// orphan promise; a lazy abort record supersedes it so
				// recovery never resurrects this transaction.
				p.env.appendLazy(wal.Record{Kind: wal.KAbort, Role: wal.RolePart, Txn: m.Txn})
				p.rm.Abort(m.Txn)
				p.dropTxn(m.Txn)
				reply.Results = nil
				reply.Err = "forcing operation log: " + ferr.Error()
				p.env.send(reply)
				return
			}
			sh := p.txns.lock(m.Txn)
			if t := sh.m[m.Txn]; t != nil {
				t.state = pPrepared
				t.coord = m.From
			}
			sh.mu.Unlock()
		}
	}
	p.env.send(reply)
}

func (p *Participant) handlePrepare(m wire.Message) {
	p.env.trace(obs.Event{Kind: obs.EvPrepareRecv, Txn: m.Txn, Peer: m.From})
	sh := p.txns.lock(m.Txn)
	t := sh.m[m.Txn]
	if t != nil && t.state == pPrepared {
		shipped := t.writes
		sh.mu.Unlock()
		// Duplicate prepare (retry after a lost vote): re-vote yes,
		// re-shipping the write set under coordinator log.
		p.vote(m.Txn, m.From, wire.VoteYes, shipped)
		return
	}
	if t == nil {
		// No subtransaction executed here (or it already aborted after an
		// execution failure): vote no.
		sh.mu.Unlock()
		p.vote(m.Txn, m.From, wire.VoteNo, nil)
		return
	}
	t.coord = m.From
	sh.mu.Unlock()

	writes, readOnly, err := p.rm.Prepare(m.Txn)
	if err != nil {
		p.rm.Abort(m.Txn)
		p.dropTxn(m.Txn)
		p.vote(m.Txn, m.From, wire.VoteNo, nil)
		return
	}
	if readOnly && p.readOnlyOpt {
		// Read-only optimization: release locks, forget, vote read-only;
		// the participant takes no part in the decision phase.
		p.rm.Abort(m.Txn)
		p.dropTxn(m.Txn)
		p.vote(m.Txn, m.From, wire.VoteReadOnly, nil)
		p.env.event(history.Event{Kind: history.EvForget, Txn: m.Txn})
		p.env.trace(obs.Event{Kind: obs.EvForget, Txn: m.Txn, Note: "read-only"})
		return
	}

	if p.proto == wire.CL {
		// Coordinator log: the participant forces nothing. Its write set
		// rides on the vote; the coordinator's forced remote-writes
		// record is the durable promise.
		sh = p.txns.lock(m.Txn)
		t.state = pPrepared
		t.writes = writes
		sh.mu.Unlock()
		p.vote(m.Txn, m.From, wire.VoteYes, writes)
		return
	}

	// The prepared record is forced before the yes vote: the promise must
	// survive a crash. It carries the coordinator's identity (where to
	// inquire) and the undo/redo images. The handler ends at the force; the
	// vote is prepared's business, now or when the delivery batch is flushed.
	p.env.forceThen(m.Rx,
		staged{op: opPrepared, p: p, t: t, txn: m.Txn, peer: m.From},
		wal.Record{Kind: wal.KPrepared, Role: wal.RolePart, Txn: m.Txn, Coord: m.From, Writes: writes})
}

// prepared is the second half of handlePrepare: err is the outcome of the
// force that covered txn's prepared record.
func (p *Participant) prepared(txn wire.TxnID, coord wire.SiteID, t *ptxn, err error) {
	if err != nil {
		// Cannot make the promise durable: abort instead of voting yes.
		// The failed force may still leave the prepared record in the log
		// buffer, where a later transaction's successful force would
		// stabilize it — an orphan promise recovery would resurrect in
		// doubt (and a PrC presumption would then wrongly commit). A lazy
		// abort record supersedes it.
		p.env.appendLazy(wal.Record{Kind: wal.KAbort, Role: wal.RolePart, Txn: txn})
		p.rm.Abort(txn)
		p.dropTxn(txn)
		p.vote(txn, coord, wire.VoteNo, nil)
		return
	}
	sh := p.txns.lock(txn)
	t.state = pPrepared
	sh.mu.Unlock()
	p.vote(txn, coord, wire.VoteYes, nil)
}

// dropTxn removes txn from the protocol table.
func (p *Participant) dropTxn(txn wire.TxnID) {
	sh := p.txns.lock(txn)
	delete(sh.m, txn)
	sh.mu.Unlock()
}

func (p *Participant) vote(txn wire.TxnID, coord wire.SiteID, v wire.Vote, shipped []wal.Update) {
	if v == wire.VoteNo {
		// A no-voter aborts unilaterally; it neither logs nor remembers.
		p.rm.Abort(txn)
	}
	p.env.event(history.Event{Kind: history.EvVote, Txn: txn, Vote: v})
	p.env.trace(obs.Event{Kind: obs.EvVote, Txn: txn, Peer: coord, Note: v.String()})
	p.env.send(wire.Message{
		Kind: wire.MsgVote, Txn: txn, From: p.env.ID, To: coord,
		Vote: v, Proto: p.proto, Writes: shipped,
	})
}

// handleDecision enforces a final decision (or an inquiry reply, which is
// the same message). Logging and acknowledgment follow the participant's
// protocol:
//
//	PrN: force decision record, ack, both outcomes.
//	PrA: commit — force commit record, ack; abort — lazy abort record, no ack.
//	PrC: commit — lazy commit record, no ack; abort — force abort record, ack.
//
// A participant with no memory of the transaction has, by assumption,
// already enforced and forgotten the decision (paper, footnote 5); it
// simply re-acknowledges.
func (p *Participant) handleDecision(m wire.Message) {
	start := p.env.now()
	p.env.trace(obs.Event{Kind: obs.EvDecisionRecv, Txn: m.Txn, Peer: m.From, Note: m.Outcome.String()})
	sh := p.txns.lock(m.Txn)
	t := sh.m[m.Txn]
	if t == nil {
		// No memory of the transaction. For two-phase protocols that
		// means already enforced (footnote 5: re-acknowledge) — their
		// logs guarantee it. A coordinator-log participant cannot make
		// that inference after a crash: with the guard silent it must
		// not ack an image-less decision (acking would tell the
		// coordinator to stop re-driving and the enforcement would be
		// lost). Instead it enforces off attached images, or asks the
		// sender for a re-drive that carries them.
		// An abort with no state enforces trivially (nothing was ever
		// applied), so only commits need the images.
		sh.mu.Unlock()
		if p.proto == wire.CL && m.Outcome == wire.Commit && !p.wasEnforced(m.Txn) {
			if len(m.Writes) > 0 {
				if err := p.rm.RecoverPrepared(m.Txn, m.Writes); err == nil {
					p.enforceCL(m, start)
					return
				}
				p.ack(m.Txn, m.From, m.Outcome)
				return
			}
			// A commit always has logged images at the coordinator (a CL
			// yes vote ships them), so this request cannot livelock.
			p.env.send(wire.Message{
				Kind: wire.MsgRecoverSite, From: p.env.ID, To: m.From, Proto: p.proto,
			})
			return
		}
		p.ack(m.Txn, m.From, m.Outcome)
		return
	}
	wasPrepared := t.state == pPrepared
	delete(sh.m, m.Txn)
	sh.mu.Unlock()

	if p.proto == wire.CL {
		// Coordinator log: the participant logs nothing, for decisions
		// included.
		p.enforceCL(m, start)
		return
	}

	if wasPrepared {
		kind := wal.KCommit
		if m.Outcome == wire.Abort {
			kind = wal.KAbort
		}
		rec := wal.Record{Kind: kind, Role: wal.RolePart, Txn: m.Txn, Coord: m.From}
		if p.proto.Acks(m.Outcome) {
			// The decision record is forced before the acknowledgment:
			// once the coordinator hears the ack it may forget, so the
			// participant can never again ask. The handler ends at the
			// force; enforcing and acknowledging are decided's business, now
			// or when the delivery batch is flushed.
			p.env.forceThen(m.Rx,
				staged{op: opDecided, p: p, txn: m.Txn, peer: m.From, outcome: m.Outcome, start: start},
				rec)
			return
		}
		_ = p.env.appendLazy(rec)
	}
	// An executing (never-prepared) subtransaction aborts without logging:
	// it promised nothing, so there is nothing a crash could misread.
	p.decided(m.Txn, m.From, m.Outcome, start, nil)
}

// decided is the second half of handleDecision: it enforces the decision
// and acknowledges it. err is the outcome of the force that covered txn's
// decision record (nil when the record needed no force). start is when the
// decision arrived.
func (p *Participant) decided(txn wire.TxnID, from wire.SiteID, outcome wire.Outcome, start time.Time, err error) {
	if err != nil {
		// If the force fails the decision is not durable and must not be
		// acknowledged — the subtransaction stays prepared and the
		// coordinator's re-send (or a post-crash inquiry) retries the
		// enforcement.
		sh := p.txns.lock(txn)
		if sh.m[txn] == nil {
			sh.m[txn] = &ptxn{state: pPrepared, coord: from, startedAt: p.env.now()}
		}
		sh.mu.Unlock()
		return
	}
	if outcome == wire.Commit {
		p.rm.Commit(txn)
	} else {
		p.rm.Abort(txn)
	}
	p.env.event(history.Event{Kind: history.EvEnforce, Txn: txn, Outcome: outcome})
	p.env.event(history.Event{Kind: history.EvForget, Txn: txn})
	p.env.observe(metrics.SpanDecision, start)
	p.env.trace(obs.Event{Kind: obs.EvForget, Txn: txn})
	p.ack(txn, from, outcome)
}

// wasEnforced reports whether the CL idempotence guard remembers txn.
func (p *Participant) wasEnforced(txn wire.TxnID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.enforced[txn]
}

// enforceCL applies a decision at a coordinator-log participant and records
// it in the volatile idempotence guard. start is when the decision arrived,
// for the decision-enforcement latency span.
func (p *Participant) enforceCL(m wire.Message, start time.Time) {
	if m.Outcome == wire.Commit {
		p.rm.Commit(m.Txn)
	} else {
		p.rm.Abort(m.Txn)
	}
	p.mu.Lock()
	if !p.enforced[m.Txn] {
		p.enforced[m.Txn] = true
		p.enforcedOrder = append(p.enforcedOrder, m.Txn)
		if len(p.enforcedOrder) > enforcedGuardLimit {
			drop := p.enforcedOrder[0]
			p.enforcedOrder = p.enforcedOrder[1:]
			delete(p.enforced, drop)
		}
	}
	p.mu.Unlock()
	p.env.event(history.Event{Kind: history.EvEnforce, Txn: m.Txn, Outcome: m.Outcome})
	p.env.event(history.Event{Kind: history.EvForget, Txn: m.Txn})
	p.env.observe(metrics.SpanDecision, start)
	p.env.trace(obs.Event{Kind: obs.EvForget, Txn: m.Txn})
	p.ack(m.Txn, m.From, m.Outcome)
}

// ack acknowledges outcome for txn to the site the decision came from, if
// the participant's protocol acknowledges that outcome at all.
func (p *Participant) ack(txn wire.TxnID, to wire.SiteID, outcome wire.Outcome) {
	if !p.proto.Acks(outcome) {
		return
	}
	p.env.trace(obs.Event{Kind: obs.EvAckSend, Txn: txn, Peer: to, Note: outcome.String()})
	p.env.send(wire.Message{
		Kind: wire.MsgAck, Txn: txn, From: p.env.ID, To: to,
		Outcome: outcome, Proto: p.proto,
	})
}

// Recover rebuilds the participant's state from the stable log after a
// crash: every transaction with a prepared record re-enters the prepared
// state (re-acquiring its locks and images in the RM) and an inquiry is
// sent to its coordinator. Transactions whose decision record survived are
// re-enforced through the RM — enforcement is idempotent — covering a crash
// between logging the decision and applying it.
func (p *Participant) Recover() error {
	if p.proto == wire.CL {
		return p.recoverCL()
	}
	type seen struct {
		prepared *wal.Record
		outcome  wire.Outcome
		decided  bool
	}
	byTxn := make(map[wire.TxnID]*seen)
	order := []wire.TxnID{}
	for _, rec := range p.env.Log.Records() {
		if rec.Kind == wal.KRecCheckpoint {
			continue // checkpoint snapshot: bookkeeping, not a protocol record
		}
		if rec.Role != wal.RolePart {
			continue // coordinator-role record; not ours
		}
		s := byTxn[rec.Txn]
		if s == nil {
			s = &seen{}
			byTxn[rec.Txn] = s
			order = append(order, rec.Txn)
		}
		switch rec.Kind {
		case wal.KPrepared:
			r := rec
			s.prepared = &r
		case wal.KCommit:
			s.outcome, s.decided = wire.Commit, true
		case wal.KAbort:
			s.outcome, s.decided = wire.Abort, true
		}
	}

	var inquiries []wire.Message
	for _, txn := range order {
		s := byTxn[txn]
		if s.prepared == nil {
			continue // decision for a transaction prepared before GC; done
		}
		if err := p.rm.RecoverPrepared(txn, s.prepared.Writes); err != nil {
			return fmt.Errorf("core: participant %s recovering %s: %w", p.env.ID, txn, err)
		}
		if s.decided {
			// Decision survived: re-enforce (idempotently) and move on.
			if s.outcome == wire.Commit {
				p.rm.Commit(txn)
			} else {
				p.rm.Abort(txn)
			}
			p.env.event(history.Event{Kind: history.EvEnforce, Txn: txn, Outcome: s.outcome})
			p.env.event(history.Event{Kind: history.EvForget, Txn: txn})
			continue
		}
		// In doubt: blocked until the coordinator answers.
		sh := p.txns.lock(txn)
		sh.m[txn] = &ptxn{state: pPrepared, coord: s.prepared.Coord, startedAt: p.env.now()}
		sh.mu.Unlock()
		inquiries = append(inquiries, p.inquiryMsg(txn, s.prepared.Coord))
	}
	p.env.event(history.Event{Kind: history.EvRecover})
	p.env.trace(obs.Event{Kind: obs.EvRecover})
	for _, m := range inquiries {
		p.env.event(history.Event{Kind: history.EvInquiry, Txn: m.Txn, Peer: m.To})
		p.env.send(m)
	}
	return nil
}

// recoverCL runs the coordinator-log site-level recovery: with no log of
// its own, the participant fences new work and announces its restart to
// every known coordinator, which re-drives outstanding decisions (write
// sets attached) and then echoes the announcement to lift the fence.
func (p *Participant) recoverCL() error {
	p.mu.Lock()
	coords := append([]wire.SiteID(nil), p.coords...)
	p.recovering = len(coords) > 0
	p.mu.Unlock()
	p.env.event(history.Event{Kind: history.EvRecover})
	p.env.trace(obs.Event{Kind: obs.EvRecover})
	for _, c := range coords {
		p.env.send(wire.Message{Kind: wire.MsgRecoverSite, From: p.env.ID, To: c, Proto: p.proto})
	}
	return nil
}

func (p *Participant) inquiryMsg(txn wire.TxnID, coord wire.SiteID) wire.Message {
	return wire.Message{
		Kind: wire.MsgInquiry, Txn: txn, From: p.env.ID, To: coord, Proto: p.proto,
	}
}

// InDoubt returns the transactions blocked in the prepared state.
func (p *Participant) InDoubt() []wire.TxnID {
	var out []wire.TxnID
	p.txns.each(func(tbl map[wire.TxnID]*ptxn) {
		for txn, t := range tbl {
			if t.state == pPrepared {
				out = append(out, txn)
			}
		}
	})
	return out
}

// Pending returns the number of transactions the participant still holds
// state for (executing or prepared).
func (p *Participant) Pending() int { return p.txns.size() }

// PTDump snapshots the live protocol table for the /txns endpoint: one
// entry per subtransaction the participant has not yet forgotten, with its
// state, coordinator and age.
func (p *Participant) PTDump() []obs.PTEntry {
	now := time.Now()
	var out []obs.PTEntry
	p.txns.each(func(tbl map[wire.TxnID]*ptxn) {
		for txn, t := range tbl {
			e := obs.PTEntry{
				Txn:   txn,
				Site:  p.env.ID,
				Role:  "participant",
				Proto: p.proto.String(),
				State: "executing",
				Peer:  t.coord,
			}
			if t.state == pPrepared {
				e.State = "prepared"
			}
			if !t.startedAt.IsZero() {
				e.Age = now.Sub(t.startedAt)
			}
			out = append(out, e)
		}
	})
	return out
}

// Tick retries the protocol's timeout actions: one inquiry per in-doubt
// transaction, and a unilateral abort of executing subtransactions that
// have idled too long (a participant that has not voted yes may always
// abort on its own; anything it hears later is answered per footnote 5).
// The site layer calls it periodically.
func (p *Participant) Tick() {
	var msgs []wire.Message
	var abandoned []wire.TxnID
	p.mu.Lock()
	if p.recovering {
		// The recovery announcement (or its echo) may have been lost:
		// repeat it until the fence lifts.
		for _, c := range p.coords {
			msgs = append(msgs, wire.Message{
				Kind: wire.MsgRecoverSite, From: p.env.ID, To: c, Proto: p.proto,
			})
		}
	}
	acceptors := p.acceptors
	p.mu.Unlock()
	p.txns.each(func(tbl map[wire.TxnID]*ptxn) {
		for txn, t := range tbl {
			switch t.state {
			case pPrepared:
				msgs = append(msgs, p.inquiryMsg(txn, t.coord))
				if len(acceptors) > 0 {
					t.inqTicks++
					if t.inqTicks > inquiryEscalateTicks {
						// Rotate through the acceptor set: one extra inquiry
						// per round is enough (any single acceptor can run
						// the takeover) and keeps the fan-out constant.
						id := acceptors[(t.inqTicks-inquiryEscalateTicks-1)%len(acceptors)]
						if id != t.coord {
							msgs = append(msgs, p.inquiryMsg(txn, id))
						}
					}
				}
			case pExecuting:
				t.idleTicks++
				if t.idleTicks >= idleAbortTicks {
					abandoned = append(abandoned, txn)
					delete(tbl, txn)
				}
			}
		}
	})
	sort.Slice(abandoned, func(i, j int) bool {
		if abandoned[i].Coord != abandoned[j].Coord {
			return abandoned[i].Coord < abandoned[j].Coord
		}
		return abandoned[i].Seq < abandoned[j].Seq
	})
	for _, txn := range abandoned {
		p.rm.Abort(txn)
		p.env.event(history.Event{Kind: history.EvEnforce, Txn: txn, Outcome: wire.Abort})
		p.env.event(history.Event{Kind: history.EvForget, Txn: txn})
		p.env.trace(obs.Event{Kind: obs.EvForget, Txn: txn, Note: "idle-abort"})
	}
	sortMsgs(msgs)
	for _, m := range msgs {
		if m.Kind == wire.MsgInquiry {
			p.env.event(history.Event{Kind: history.EvInquiry, Txn: m.Txn, Peer: m.To})
		}
	}
	p.env.fanout(msgs)
}

// CheckpointEntries snapshots the participant's protocol table for a
// RecCheckpoint record: one entry per live subtransaction with its phase
// and, for prepared entries, the coordinator to inquire at. Entries are
// sorted by transaction so equal tables snapshot identically.
func (p *Participant) CheckpointEntries() []wal.CheckpointEntry {
	var out []wal.CheckpointEntry
	p.txns.each(func(tbl map[wire.TxnID]*ptxn) {
		for txn, t := range tbl {
			e := wal.CheckpointEntry{Txn: txn, Role: wal.RolePart, Phase: wal.CkptExecuting, Coord: t.coord}
			if t.state == pPrepared {
				e.Phase = wal.CkptPrepared
			}
			out = append(out, e)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Txn.String() < out[j].Txn.String() })
	return out
}

// Live reports whether the participant still needs txn's log records: only
// in-doubt (prepared, undecided) transactions do. The site's checkpointer
// uses it; everything else is garbage the moment the decision is enforced,
// which is clause 3 of operational correctness.
func (p *Participant) Live(txn wire.TxnID) bool {
	sh := p.txns.lock(txn)
	_, ok := sh.m[txn]
	sh.mu.Unlock()
	return ok
}
