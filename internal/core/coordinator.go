package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prany/internal/history"
	"prany/internal/metrics"
	"prany/internal/obs"
	"prany/internal/wal"
	"prany/internal/wire"
)

// Strategy selects how a coordinator integrates heterogeneous participants.
type Strategy uint8

const (
	// StrategyPrAny is the paper's protocol: a homogeneous participant set
	// runs its native variant; a heterogeneous one runs Presumed Any, with
	// the forced initiation record, per-outcome acknowledgment subsets,
	// and the dynamic per-inquirer presumption (Section 4).
	StrategyPrAny Strategy = iota
	// StrategyU2PC is the union 2PC straw man of Section 2: the
	// coordinator logs and presumes per its own Native protocol, speaks
	// each participant's dialect, and forgets as soon as every ack that
	// *will* come has come. Theorem 1: it violates atomicity.
	StrategyU2PC
	// StrategyC2PC is the coordinator 2PC straw man of Section 3: like
	// U2PC, but it refuses to forget until *every* decision recipient has
	// acknowledged — which PrA participants never do for aborts and PrC
	// participants never do for commits. Theorem 2: functionally correct,
	// operationally not.
	StrategyC2PC
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyU2PC:
		return "U2PC"
	case StrategyC2PC:
		return "C2PC"
	default:
		return "PrAny"
	}
}

// CoordinatorConfig configures a coordinator engine.
type CoordinatorConfig struct {
	Strategy Strategy
	// Native is the coordinator's own protocol under U2PC and C2PC (PrN,
	// PrA or PrC). Ignored by StrategyPrAny.
	Native wire.Protocol
	// VoteTimeout bounds the voting phase; a silent participant is treated
	// as a no vote. Zero means 500ms.
	VoteTimeout time.Duration
	// NewDecider, when set, builds the decision fix-point for this
	// coordinator — a replicated decider (internal/consensus) makes the
	// decision durable on an acceptor quorum instead of the local log.
	// Nil means SingleDecider: the paper's force-then-send path.
	NewDecider func(env Env) Decider
}

type cstate uint8

const (
	cVoting   cstate = iota
	cDraining        // decision sent; collecting expected acks
	cDeciding        // replicated decision in flight; outcome not yet fixed
)

type cpart struct {
	proto        wire.Protocol
	voted        bool
	vote         wire.Vote
	expectAck    bool
	acked        bool
	sentDecision bool
	// resends counts decision re-sends to this participant; resendDue is
	// the Tick count before which the next re-send is suppressed (capped
	// jittered exponential backoff, mirroring the TCP redial policy).
	resends   int
	resendDue uint64
	// writes is the write set a coordinator-log participant shipped with
	// its vote (force-logged in a remote-writes record); re-driven
	// decisions to CL sites attach it.
	writes []wal.Update
}

type ctxn struct {
	txn       wire.TxnID
	state     cstate
	parts     map[wire.SiteID]*cpart
	order     []wire.SiteID
	chosen    wire.Protocol // a participant protocol, or PrAny
	decided   bool
	outcome   wire.Outcome
	votesDone chan struct{}
	voteOnce  sync.Once

	// decideDone closes when a replicated decision fixes (nil under the
	// single decider, whose decisions fix synchronously).
	decideDone chan struct{}
	decideOnce sync.Once

	// startedAt and decidedAt time the entry for latency histograms and the
	// /txns age column. Zero when the site is un-instrumented (Env.now);
	// deliberately absent from DebugState so model-checker state hashing
	// stays timestamp-free.
	startedAt time.Time
	decidedAt time.Time
}

func (ct *ctxn) closeVotes() { ct.voteOnce.Do(func() { close(ct.votesDone) }) }

// allVotesIn reports whether every participant voted or some vote is no —
// either way the voting phase can end.
func (ct *ctxn) allVotesIn() bool {
	all := true
	for _, p := range ct.parts {
		if !p.voted {
			all = false
			continue
		}
		if p.vote == wire.VoteNo {
			return true
		}
	}
	return all
}

// Coordinator is one site's coordinator-side engine. Its protocol table is
// sharded by transaction-id hash so unrelated transactions never contend on
// one mutex; each ctxn's fields are guarded by its shard's lock.
type Coordinator struct {
	env     Env
	cfg     CoordinatorConfig
	pcp     *PCP
	decider Decider

	txns *shardedTable[*ctxn] // the protocol table

	// wheel services the commit path's vote-wait deadlines with one
	// goroutine instead of one runtime timer per transaction.
	wheel *deadlineWheel

	// ticks counts Tick calls; the decision re-send backoff is measured in
	// these units. jitterMu guards jitter, the backoff randomizer.
	ticks    atomic.Uint64
	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// NewCoordinator builds a coordinator engine over the given PCP table.
func NewCoordinator(env Env, cfg CoordinatorConfig, pcp *PCP) *Coordinator {
	if cfg.VoteTimeout <= 0 {
		cfg.VoteTimeout = 500 * time.Millisecond
	}
	if cfg.Strategy != StrategyPrAny && !cfg.Native.ParticipantProtocol() {
		panic("core: U2PC/C2PC need a native protocol of PrN, PrA or PrC")
	}
	var onContend func()
	if env.Met != nil {
		met, id := env.Met, env.ID
		onContend = func() { met.ShardWait(id) }
	}
	c := &Coordinator{
		env: env, cfg: cfg, pcp: pcp, txns: newShardedTable[*ctxn](onContend),
		jitter: rand.New(rand.NewSource(int64(len(env.ID)) + 1)),
	}
	if cfg.NewDecider != nil {
		c.decider = cfg.NewDecider(env)
	} else {
		c.decider = NewSingleDecider(env)
	}
	c.wheel = newDeadlineWheel()
	return c
}

// Stop terminates the coordinator's deadline wheel: pending vote waits wake
// as if their timeout fired, and the follow-up work fails on the dead site.
// The site layer calls it on crash; recovery builds a fresh coordinator.
func (c *Coordinator) Stop() { c.wheel.stop() }

// Decider returns the coordinator's decision fix-point (for tests and
// introspection).
func (c *Coordinator) Decider() Decider { return c.decider }

// choose picks the per-transaction protocol. Under PrAny it is the Section
// 4.1 selection rule; U2PC and C2PC always run the coordinator's native
// protocol regardless of the participant mix — that is their flaw.
func (c *Coordinator) choose(protos []wire.Protocol) wire.Protocol {
	if c.cfg.Strategy == StrategyPrAny {
		return Select(protos)
	}
	return c.cfg.Native
}

// Commit runs the two phases for txn across parts and returns the outcome.
// It returns once the decision is fixed and sent; acknowledgment draining,
// the end record and forgetting complete asynchronously through Handle and
// Tick. An error means the transaction could not even be driven to a
// decision (site down, log failure); no decision was communicated.
func (c *Coordinator) Commit(txn wire.TxnID, parts []wire.SiteID) (wire.Outcome, error) {
	start := c.env.now()
	ct, prepares, err := c.begin(txn, parts)
	if err != nil {
		return wire.Abort, err
	}
	if prepares > 0 {
		e := c.wheel.add(time.Now().Add(c.cfg.VoteTimeout))
		select {
		case <-ct.votesDone:
			c.wheel.cancel(e)
		case <-e.expired:
		}
	}
	outcome, err := c.resolve(ct)
	if errors.Is(err, ErrDecidePending) {
		outcome, err = c.awaitDecision(ct)
	}
	if err == nil {
		c.env.observe(metrics.SpanCommit, start)
	}
	return outcome, err
}

// awaitDecision blocks until an in-flight replicated decision fixes (the
// decider's quorum round), or the vote timeout elapses again without one.
func (c *Coordinator) awaitDecision(ct *ctxn) (wire.Outcome, error) {
	e := c.wheel.add(time.Now().Add(c.cfg.VoteTimeout))
	select {
	case <-ct.decideDone:
		c.wheel.cancel(e)
		sh := c.txns.lock(ct.txn)
		outcome := ct.outcome
		sh.mu.Unlock()
		return outcome, nil
	case <-e.expired:
		return wire.Abort, ErrDecidePending
	}
}

// Begin runs only the voting phase's setup: protocol-table insert, the
// forced initiation record when the chosen variant needs one, and the
// prepare fan-out. It never blocks on votes — a deterministic driver (the
// model checker) delivers them itself and ends the phase with Resolve. The
// production path is Commit, which is Begin + vote wait + Resolve.
func (c *Coordinator) Begin(txn wire.TxnID, parts []wire.SiteID) error {
	_, _, err := c.begin(txn, parts)
	return err
}

// Resolve ends txn's voting phase now — as if the vote timeout fired —
// deciding commit if every vote is an explicit yes and abort otherwise,
// then performs the decision phase. Calling it for a transaction already
// past voting returns the fixed outcome; for an unknown transaction it
// errors.
func (c *Coordinator) Resolve(txn wire.TxnID) (wire.Outcome, error) {
	sh := c.txns.lock(txn)
	ct := sh.m[txn]
	sh.mu.Unlock()
	if ct == nil {
		return wire.Abort, fmt.Errorf("core: transaction %s not in protocol table", txn)
	}
	return c.resolve(ct)
}

// VoteStatus reports txn's voting phase: open means the transaction exists
// and is still voting; done means every vote that can end the phase is in
// (all voted, or some no). A driver uses it to decide between delivering
// more votes and firing the timeout via Resolve.
func (c *Coordinator) VoteStatus(txn wire.TxnID) (open, done bool) {
	sh := c.txns.lock(txn)
	ct := sh.m[txn]
	if ct == nil {
		sh.mu.Unlock()
		return false, false
	}
	open = ct.state == cVoting
	sh.mu.Unlock()
	select {
	case <-ct.votesDone:
		done = true
	default:
	}
	return open, done
}

// begin is the voting-phase setup shared by Commit and Begin; it returns
// the inserted entry and how many prepares went out.
func (c *Coordinator) begin(txn wire.TxnID, parts []wire.SiteID) (*ctxn, int, error) {
	if len(parts) == 0 {
		return nil, 0, fmt.Errorf("core: transaction %s has no participants", txn)
	}
	ct := &ctxn{
		txn:       txn,
		parts:     make(map[wire.SiteID]*cpart, len(parts)),
		votesDone: make(chan struct{}),
		startedAt: c.env.now(),
	}
	if c.decider.Replicated() {
		// Replicated decisions fix asynchronously: a duplicate Resolve racing
		// the fix-point waits on this channel instead of re-deciding.
		ct.decideDone = make(chan struct{})
	}
	protos := make([]wire.Protocol, 0, len(parts))
	for _, id := range parts {
		proto, ok := c.pcp.Lookup(id)
		if !ok {
			return nil, 0, fmt.Errorf("core: participant %s not in PCP table", id)
		}
		p := &cpart{proto: proto}
		if proto.OnePhase() {
			// Implicit yes-vote: every operation acknowledgment this
			// participant sent was a durable vote, so it stands as a yes
			// voter with no prepare round. (The caller must only include
			// one-phase sites whose operations all acknowledged — the
			// transaction manager guarantees that.)
			p.voted = true
			p.vote = wire.VoteYes
		}
		ct.parts[id] = p
		ct.order = append(ct.order, id)
		protos = append(protos, proto)
	}
	ct.chosen = c.choose(protos)

	sh := c.txns.lock(txn)
	if _, dup := sh.m[txn]; dup {
		sh.mu.Unlock()
		return nil, 0, fmt.Errorf("core: transaction %s already in protocol table", txn)
	}
	sh.m[txn] = ct
	sh.mu.Unlock()
	if c.env.Met != nil {
		c.env.Met.PTInsert(c.env.ID)
	}
	c.env.trace(obs.Event{Kind: obs.EvBegin, Txn: txn, Note: ct.chosen.String()})

	// Voting phase. A variant that does not presume abort forces an
	// initiation record naming every participant and its protocol before
	// any prepare is sent (wire.Rule.ForcesInitiation). A replicated
	// decider forces it for *every* chosen variant: the record is what
	// tells recovery to learn the outcome from the acceptors instead of
	// presuming, and names the roster to finish with.
	if ct.chosen.Rule().ForcesInitiation() || c.decider.Replicated() {
		if err := c.env.force(wal.Record{
			Kind: wal.KInitiation, Role: wal.RoleCoord, Txn: txn, Participants: c.infoList(ct),
		}); err != nil {
			c.drop(txn)
			return nil, 0, err
		}
	}
	var prepares []wire.Message
	for _, id := range ct.order {
		if ct.parts[id].proto.OnePhase() {
			continue // implicitly prepared; no voting round
		}
		prepares = append(prepares, wire.Message{Kind: wire.MsgPrepare, Txn: txn, From: c.env.ID, To: id})
	}
	if c.env.Obs != nil {
		for _, m := range prepares {
			c.env.trace(obs.Event{Kind: obs.EvPrepareSend, Txn: txn, Peer: m.To})
		}
	}
	c.env.fanout(prepares)
	return ct, len(prepares), nil
}

// resolve is the decision half shared by Commit and Resolve: it closes the
// voting phase on whatever votes are in and decides. A transaction already
// decided (a duplicate Resolve, or recovery got there first) just returns
// the fixed outcome.
func (c *Coordinator) resolve(ct *ctxn) (wire.Outcome, error) {
	sh := c.txns.lock(ct.txn)
	if ct.state != cVoting {
		outcome, decided := ct.outcome, ct.decided
		sh.mu.Unlock()
		if !decided {
			return outcome, ErrDecidePending // replicated decision in flight
		}
		return outcome, nil
	}
	outcome := wire.Abort
	if ct.allYes() {
		outcome = wire.Commit
	}
	if c.decider.Replicated() {
		// Claim the decision now, under the lock: a replicated decide
		// completes asynchronously, and a duplicate Resolve racing in must
		// wait for the fix-point, not start a second decision.
		ct.state = cDeciding
	}
	sh.mu.Unlock()
	return c.decide(ct, outcome)
}

func (ct *ctxn) allYes() bool {
	for _, p := range ct.parts {
		if !p.voted || p.vote == wire.VoteNo {
			return false
		}
	}
	return true
}

// infoList snapshots the participant set with protocols for log records.
func (c *Coordinator) infoList(ct *ctxn) []wal.ParticipantInfo {
	out := make([]wal.ParticipantInfo, 0, len(ct.order))
	for _, id := range ct.order {
		out = append(out, wal.ParticipantInfo{ID: id, Proto: ct.parts[id].proto})
	}
	return out
}

// decide fixes the outcome through the decider, then performs the decision
// phase: send the decision and start draining acknowledgments. Under a
// replicated decider the fix-point may complete asynchronously, in which
// case ErrDecidePending is returned and finalize runs from the consensus
// delivery path.
func (c *Coordinator) decide(ct *ctxn, outcome wire.Outcome) (wire.Outcome, error) {
	req := DecideRequest{
		Txn:     ct.txn,
		Chosen:  ct.chosen,
		Outcome: outcome,
		Roster:  c.infoList(ct),
	}
	if c.decider.Replicated() {
		req.Votes = c.instanceVotes(ct)
	}
	fixed, done, err := c.decider.Decide(req, func(o wire.Outcome) { c.finalize(ct, o) })
	if err != nil {
		return fixed, err
	}
	if !done {
		return fixed, ErrDecidePending
	}
	c.finalize(ct, fixed)
	return fixed, nil
}

// instanceVotes maps the participant votes onto per-participant consensus
// instance values: explicit and read-only yes votes propose yes, no votes
// and silent participants propose no — the conjunction is the outcome, so a
// takeover leader recomputes exactly the coordinator's decision rule.
func (c *Coordinator) instanceVotes(ct *ctxn) []wire.InstanceVote {
	out := make([]wire.InstanceVote, 0, len(ct.order))
	for _, id := range ct.order {
		p := ct.parts[id]
		v := wire.VoteNo
		if p.voted && p.vote != wire.VoteNo {
			v = wire.VoteYes
		}
		out = append(out, wire.InstanceVote{Part: id, Vote: v})
	}
	return out
}

// finalize is the decision phase after the fix-point: record the decide
// event, mark the entry decided, send the decision messages and start
// draining. It runs at most once per transaction (a duplicate call — the
// replicated decider's callback racing a recovery — is a no-op).
func (c *Coordinator) finalize(ct *ctxn, outcome wire.Outcome) {
	sh := c.txns.lock(ct.txn)
	if ct.decided {
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()

	c.env.event(history.Event{Kind: history.EvDecide, Txn: ct.txn, Outcome: outcome})
	c.env.trace(obs.Event{Kind: obs.EvDecide, Txn: ct.txn, Note: outcome.String()})

	sh = c.txns.lock(ct.txn)
	if ct.decided {
		sh.mu.Unlock()
		return
	}
	ct.decided = true
	ct.outcome = outcome
	ct.state = cDraining
	ct.decidedAt = c.env.now()
	msgs := c.decisionMsgsLocked(ct)
	finished := c.maybeFinishLocked(sh.m, ct)
	sh.mu.Unlock()
	if ct.decideDone != nil {
		ct.decideOnce.Do(func() { close(ct.decideDone) })
	}
	c.env.observe(metrics.SpanPrepare, ct.startedAt)

	if c.env.Obs != nil {
		for _, m := range msgs {
			c.env.trace(obs.Event{Kind: obs.EvDecisionSend, Txn: ct.txn, Peer: m.To, Note: outcome.String()})
		}
	}
	c.env.fanout(msgs)
	if finished {
		c.decider.Finished(ct.txn, outcome)
	}
}

// decisionMsgsLocked computes the decision recipients, marks the expected
// acknowledgment set, and returns the messages to send.
//
// Recipients: a commit goes to every participant that voted yes (all of
// them, by definition of commit) except read-only voters, who left the
// protocol at their vote. An abort goes to everyone except no-voters (who
// aborted unilaterally and forgot) and read-only voters — including silent
// participants, whose yes vote may have been lost and who may therefore be
// blocked in the prepared state.
//
// Expected acks per strategy (expectsAck):
//
//	PrAny:  recipients whose own protocol acknowledges this outcome
//	        (wire.Rule.Acks; Figure 1).
//	U2PC:   as PrAny when the native protocol collects acks for this
//	        outcome at all, empty otherwise.
//	C2PC:   every recipient, whether or not its protocol will ever ack.
func (c *Coordinator) decisionMsgsLocked(ct *ctxn) []wire.Message {
	var msgs []wire.Message
	for _, id := range ct.order {
		p := ct.parts[id]
		if p.voted && p.vote == wire.VoteReadOnly {
			continue
		}
		if ct.outcome == wire.Abort && p.voted && p.vote == wire.VoteNo {
			continue
		}
		p.sentDecision = true
		p.expectAck = c.expectsAck(ct, p)
		msgs = append(msgs, wire.Message{
			Kind: wire.MsgDecision, Txn: ct.txn, From: c.env.ID, To: id, Outcome: ct.outcome,
		})
	}
	return msgs
}

func (c *Coordinator) expectsAck(ct *ctxn, p *cpart) bool {
	switch c.cfg.Strategy {
	case StrategyC2PC:
		return true
	case StrategyU2PC:
		if !c.cfg.Native.Acks(ct.outcome) {
			return false // native protocol forgets this outcome at once
		}
	}
	return p.proto.Acks(ct.outcome)
}

// maybeFinishLocked checks whether every expected ack arrived; if so it
// writes the end record (when the variant calls for one, and always under
// C2PC) and deletes the transaction from its shard map m (the caller holds
// that shard's lock) — the coordinator forgets.
func (c *Coordinator) maybeFinishLocked(m map[wire.TxnID]*ctxn, ct *ctxn) bool {
	if ct.state != cDraining {
		return false
	}
	for _, p := range ct.parts {
		if p.expectAck && !p.acked {
			return false
		}
	}
	if c.cfg.Strategy == StrategyC2PC || ct.chosen.Rule().EndsOn(ct.outcome) {
		_ = c.env.appendLazy(wal.Record{Kind: wal.KEnd, Role: wal.RoleCoord, Txn: ct.txn})
	}
	delete(m, ct.txn)
	if c.env.Met != nil {
		c.env.Met.PTDelete(c.env.ID)
	}
	c.env.event(history.Event{Kind: history.EvDeletePT, Txn: ct.txn})
	c.env.observe(metrics.SpanAck, ct.decidedAt)
	c.env.trace(obs.Event{Kind: obs.EvPTDelete, Txn: ct.txn})
	return true
}

// drop removes a transaction that never reached a decision (setup failure).
func (c *Coordinator) drop(txn wire.TxnID) {
	sh := c.txns.lock(txn)
	delete(sh.m, txn)
	sh.mu.Unlock()
	if c.env.Met != nil {
		c.env.Met.PTDelete(c.env.ID)
	}
}

// Handle processes one inbound message addressed to the coordinator role:
// VOTE, ACK or INQUIRY.
func (c *Coordinator) Handle(m wire.Message) {
	switch m.Kind {
	case wire.MsgVote:
		c.handleVote(m)
	case wire.MsgAck:
		c.handleAck(m)
	case wire.MsgInquiry:
		c.handleInquiry(m)
	case wire.MsgRecoverSite:
		c.handleRecoverSite(m)
	case wire.MsgPhase1b, wire.MsgPhase2b:
		c.decider.HandlePhase(m)
	}
}

// handleRecoverSite serves a coordinator-log participant's restart
// announcement: every decided transaction still awaiting that site's
// acknowledgment is re-driven with the logged write set attached, and the
// announcement is echoed back afterwards so the site can lift its recovery
// fence (per-destination FIFO guarantees the decisions arrive first).
func (c *Coordinator) handleRecoverSite(m wire.Message) {
	var msgs []wire.Message
	c.txns.each(func(tbl map[wire.TxnID]*ctxn) {
		for _, ct := range tbl {
			if ct.state != cDraining {
				continue
			}
			p := ct.parts[m.From]
			if p == nil || !p.expectAck || p.acked {
				continue
			}
			p.sentDecision = true
			msgs = append(msgs, wire.Message{
				Kind: wire.MsgDecision, Txn: ct.txn, From: c.env.ID, To: m.From,
				Outcome: ct.outcome, Writes: p.writes,
			})
		}
	})
	// All re-driven decisions share one destination, so fanout sends them
	// in order and returns before the echo goes out — the per-destination
	// FIFO the recovering site's fence relies on.
	sortMsgs(msgs)
	c.env.fanout(msgs)
	// The echo carries PrAny as the sender protocol so site-level routing
	// can tell it apart from a participant's announcement.
	c.env.send(wire.Message{Kind: wire.MsgRecoverSite, From: c.env.ID, To: m.From, Proto: wire.PrAny})
}

func (c *Coordinator) handleVote(m wire.Message) {
	c.env.trace(obs.Event{Kind: obs.EvVoteRecv, Txn: m.Txn, Peer: m.From, Note: m.Vote.String()})
	sh, ct, p := c.openVote(m.Txn, m.From)
	if p == nil {
		return
	}
	if p.proto.ShipsWrites() && m.Vote == wire.VoteYes {
		// Coordinator log: the participant's write set must be stable
		// *here* before its yes vote counts — this log is the
		// participant's only memory. The handler ends at the force;
		// voteLogged counts the vote, now or when the delivery batch is
		// flushed.
		sh.mu.Unlock()
		c.env.forceThen(m.Rx,
			staged{op: opVoteLogged, c: c, txn: m.Txn, peer: m.From, writes: m.Writes},
			wal.Record{Kind: wal.KRemoteWrites, Role: wal.RoleCoord, Txn: m.Txn, Coord: m.From, Writes: m.Writes})
		return
	}
	countVoteLocked(ct, p, m.Vote)
	sh.mu.Unlock()
}

// openVote returns from's entry in txn's voting round with the shard locked,
// or a nil entry (and nothing locked) when the vote no longer counts: the
// transaction is decided or forgotten, or from already voted.
func (c *Coordinator) openVote(txn wire.TxnID, from wire.SiteID) (*tableShard[*ctxn], *ctxn, *cpart) {
	sh := c.txns.lock(txn)
	ct := sh.m[txn]
	if ct == nil || ct.state != cVoting {
		sh.mu.Unlock()
		return nil, nil, nil // late vote for a decided or forgotten transaction
	}
	p := ct.parts[from]
	if p == nil || p.voted {
		sh.mu.Unlock()
		return nil, nil, nil
	}
	return sh, ct, p
}

// countVoteLocked records p's vote and ends the voting phase if it was the
// last one needed. Caller holds the transaction's shard lock.
func countVoteLocked(ct *ctxn, p *cpart, v wire.Vote) {
	p.voted = true
	p.vote = v
	if ct.allVotesIn() {
		ct.closeVotes()
	}
}

// voteLogged is the second half of handleVote for a coordinator-log yes
// vote: err is the outcome of the force that covered the remote-writes
// record.
func (c *Coordinator) voteLogged(txn wire.TxnID, from wire.SiteID, writes []wal.Update, err error) {
	if err != nil {
		return // vote uncounted; the timeout will abort
	}
	// Re-validate: the transaction may have been decided (timeout abort)
	// while the force ran.
	sh, ct, p := c.openVote(txn, from)
	if p == nil {
		return
	}
	p.writes = writes
	countVoteLocked(ct, p, wire.VoteYes)
	sh.mu.Unlock()
}

func (c *Coordinator) handleAck(m wire.Message) {
	c.env.trace(obs.Event{Kind: obs.EvAckRecv, Txn: m.Txn, Peer: m.From})
	sh := c.txns.lock(m.Txn)
	ct := sh.m[m.Txn]
	if ct == nil {
		sh.mu.Unlock()
		return // ack after forgetting: the protocol violation U2PC ignores
	}
	p := ct.parts[m.From]
	if p == nil {
		sh.mu.Unlock()
		return
	}
	p.acked = true
	finished := c.maybeFinishLocked(sh.m, ct)
	outcome := ct.outcome
	sh.mu.Unlock()
	if finished {
		c.decider.Finished(ct.txn, outcome)
	}
}

// handleInquiry answers a participant blocked in doubt. With the
// transaction still in the protocol table, the recorded decision is
// returned (or nothing yet, if voting is unresolved — the participant will
// re-inquire). After the coordinator has forgotten, the answer comes from a
// presumption:
//
//	PrAny: the *inquirer's own* protocol's presumption — commit for a PrC
//	       participant, abort for PrA or PrN. The safe state (Definition 2)
//	       guarantees exactly one presumption can still be reached here.
//	U2PC / C2PC: the coordinator's native presumption, right or wrong —
//	       this is the Theorem 1 bug, preserved deliberately.
func (c *Coordinator) handleInquiry(m wire.Message) {
	sh := c.txns.lock(m.Txn)
	ct := sh.m[m.Txn]
	if ct != nil {
		if !ct.decided {
			sh.mu.Unlock()
			return // still voting; decision (or timeout abort) is coming
		}
		outcome := ct.outcome
		sh.mu.Unlock()
		c.respond(m, outcome)
		return
	}
	sh.mu.Unlock()

	outcome := c.presumeFor(m)
	c.respond(m, outcome)
}

// presumeFor picks the presumption used to answer an inquiry about a
// forgotten transaction.
func (c *Coordinator) presumeFor(m wire.Message) wire.Outcome {
	proto := c.cfg.Native
	if c.cfg.Strategy == StrategyPrAny {
		proto = m.Proto
		if p, ok := c.pcp.Lookup(m.From); ok {
			proto = p
		}
	}
	o, _ := proto.Presumption() // abort for a protocol without one
	return o
}

func (c *Coordinator) respond(inq wire.Message, outcome wire.Outcome) {
	c.env.event(history.Event{Kind: history.EvRespond, Txn: inq.Txn, Outcome: outcome, Peer: inq.From})
	c.env.send(wire.Message{
		Kind: wire.MsgDecision, Txn: inq.Txn, From: c.env.ID, To: inq.From, Outcome: outcome,
	})
}

// Tick retries timeout-driven work: decisions are re-sent to expected
// acknowledgers that have not acknowledged (their copy, or its ack, may
// have been lost, or the participant may have been down). The site layer
// calls it periodically.
//
// Re-sends back off per participant under the TCP redial policy — a base
// delay doubling per consecutive re-send, capped, jittered — measured in
// Tick calls: the first re-send fires on the next Tick, then the gaps grow
// to the cap, so a long-dead participant costs O(log) decision copies per
// backoff window instead of one per tick. Suppressed re-sends are counted
// (metrics.ResendsSuppressed); an acknowledgment resets nothing because the
// participant then leaves the pending set entirely.
func (c *Coordinator) Tick() {
	tick := c.ticks.Add(1)
	var msgs []wire.Message
	suppressed := 0
	c.txns.each(func(tbl map[wire.TxnID]*ctxn) {
		for _, ct := range tbl {
			if ct.state != cDraining {
				continue
			}
			for _, id := range ct.order {
				p := ct.parts[id]
				if !p.sentDecision || !p.expectAck || p.acked {
					continue
				}
				if tick < p.resendDue {
					suppressed++
					continue
				}
				p.resends++
				p.resendDue = tick + c.resendDelay(p.resends)
				msgs = append(msgs, wire.Message{
					Kind: wire.MsgDecision, Txn: ct.txn, From: c.env.ID, To: id, Outcome: ct.outcome,
				})
			}
		}
	})
	if suppressed > 0 && c.env.Met != nil {
		c.env.Met.ResendSuppressed(c.env.ID, suppressed)
	}
	c.decider.Tick()
	sortMsgs(msgs)
	c.env.fanout(msgs)
}

// resendDelay returns the tick gap before the re-send after `resends`
// consecutive re-sends: base 1 doubling per re-send, capped at 16, drawn
// from [d/2, d] — the transport's redial backoff in tick units. Under a
// serial scheduler the jitter is bypassed so deterministic drivers replay
// identically.
func (c *Coordinator) resendDelay(resends int) uint64 {
	const capTicks = 16
	d := uint64(1)
	for i := 1; i < resends && d < capTicks; i++ {
		d *= 2
	}
	if d > capTicks {
		d = capTicks
	}
	if c.env.serial() {
		return d
	}
	c.jitterMu.Lock()
	j := uint64(c.jitter.Int63n(int64(d/2) + 1))
	c.jitterMu.Unlock()
	if v := d/2 + j; v > 0 {
		return v
	}
	return 1
}

// PTSize returns the number of protocol-table entries — the retention
// measure of Theorem 2.
func (c *Coordinator) PTSize() int { return c.txns.size() }

// Knows reports whether txn is still in the protocol table (the site layer
// routes inquiries between the coordinator and a co-located acceptor by it).
func (c *Coordinator) Knows(txn wire.TxnID) bool {
	sh := c.txns.lock(txn)
	_, ok := sh.m[txn]
	sh.mu.Unlock()
	return ok
}

// PTEntries returns the transactions currently in the protocol table, in
// sorted order.
func (c *Coordinator) PTEntries() []wire.TxnID {
	var out []wire.TxnID
	c.txns.each(func(tbl map[wire.TxnID]*ctxn) {
		for txn := range tbl {
			out = append(out, txn)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// PTDump snapshots the live protocol table for the /txns endpoint and the
// E17 retention probe: per-entry state, outcome, pending-acknowledgment
// counts and age. Under C2PC the draining entries whose pending count can
// never reach zero are Theorem 2 made directly visible.
func (c *Coordinator) PTDump() []obs.PTEntry {
	now := time.Now()
	var out []obs.PTEntry
	c.txns.each(func(tbl map[wire.TxnID]*ctxn) {
		for _, ct := range tbl {
			e := obs.PTEntry{
				Txn:   ct.txn,
				Site:  c.env.ID,
				Role:  "coordinator",
				Proto: ct.chosen.String(),
				State: "voting",
			}
			if ct.state == cDraining {
				e.State = "draining"
			}
			if ct.decided {
				e.Outcome = ct.outcome.String()
			}
			for _, p := range ct.parts {
				if p.expectAck {
					e.AcksExpected++
					if !p.acked {
						e.AcksPending++
					}
				}
			}
			if !ct.startedAt.IsZero() {
				e.Age = now.Sub(ct.startedAt)
			}
			out = append(out, e)
		}
	})
	return out
}

// CheckpointEntries snapshots the coordinator's protocol table for a
// RecCheckpoint record: one entry per live transaction with its phase and,
// when decided, its outcome. Entries are sorted by transaction so equal
// tables snapshot identically.
func (c *Coordinator) CheckpointEntries() []wal.CheckpointEntry {
	var out []wal.CheckpointEntry
	c.txns.each(func(tbl map[wire.TxnID]*ctxn) {
		for _, ct := range tbl {
			e := wal.CheckpointEntry{Txn: ct.txn, Role: wal.RoleCoord, Phase: wal.CkptVoting}
			if ct.state == cDraining {
				e.Phase = wal.CkptDraining
			}
			if ct.decided {
				e.Decided = true
				e.Outcome = ct.outcome
			}
			out = append(out, e)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Txn.String() < out[j].Txn.String() })
	return out
}

// Live reports whether the coordinator still needs txn's log records. Only
// transactions in the protocol table do; everything else is garbage by
// clause 2 of operational correctness.
func (c *Coordinator) Live(txn wire.TxnID) bool {
	sh := c.txns.lock(txn)
	_, ok := sh.m[txn]
	sh.mu.Unlock()
	return ok
}
