package consensus

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"prany/internal/core"
	"prany/internal/history"
	"prany/internal/wal"
	"prany/internal/wire"
)

// Acceptor is one member of the replicated decision's 2F+1-site quorum. It
// persists promises and accepts through its own WAL — the
// acceptor set collectively *is* the decision log — recovers by replaying
// those records and catching up from a peer's checkpoint image, and doubles
// as a takeover leader: a participant blocked in doubt while the
// coordinator is down inquires here, and the acceptor finishes the decision
// with a full Paxos round at its own ballot slot.
//
// Deliberately, an acceptor has no presumption discipline of its own: it
// answers an inquiry from consensus state (a decided tombstone, or a round
// it finishes), never by presuming. Before the decision is fixed there is
// no truth a presumption could encode — a PrC participant would be told
// commit and a PrA participant abort for the same undecided transaction —
// so decided tombstones are retained (and checkpointed) forever, and the
// presumption/forgetting rules remain purely the participant↔coordinator
// contract (DESIGN.md §13).
type Acceptor struct {
	env    core.Env
	all    []wire.SiteID // the full acceptor set, including this site
	peers  []wire.SiteID // the set minus this site
	slot   int           // this site's index in all; its leader slot is slot+1
	quorum int

	mu   sync.Mutex
	txns map[wire.TxnID]*atxn
	// open is the undecided part of txns. Tombstones are kept forever, so
	// what runs on a timer or in a poll (Tick, Quiesced, Pending) walks open
	// and costs the same however long the site has been up.
	open map[wire.TxnID]*atxn
}

// atxn is one transaction's acceptor state: the shared promise ballot, the
// per-instance accepted values, and — when this acceptor leads a takeover —
// the leader round.
type atxn struct {
	promised uint32
	insts    map[wire.SiteID]wire.InstanceVote // Bal = ballot accepted at
	order    []wire.SiteID
	roster   []wire.RosterEntry
	decided  bool
	outcome  wire.Outcome
	lead     *lead
	// idleTicks counts the Ticks that found this transaction undecided with
	// no takeover in progress — accepted state this replica holds while
	// nothing drives it forward (it synced from peers before they learned the
	// outcome, say). Every couple of them the acceptor re-requests a peer
	// sync; a peer that has since decided answers with the tombstone. Counted
	// per transaction: under load every Tick finds transactions in flight,
	// each a different one and none of them stuck.
	idleTicks int
	// inquirers are the blocked participants owed a decision once one is
	// known.
	inquirers []wire.SiteID
	inqSet    map[wire.SiteID]bool
}

// lead is a takeover round led by this acceptor.
type lead struct {
	ballot   uint32
	attempt  uint32
	learning bool
	insts    []wire.InstanceVote
	p1       map[wire.SiteID][]wire.InstanceVote
	accepts  map[wire.SiteID]bool
	stall    int
}

// NewAcceptor builds an acceptor for the given set (which must contain
// env.ID).
func NewAcceptor(env core.Env, all []wire.SiteID) *Acceptor {
	slot := -1
	var peers []wire.SiteID
	for i, id := range all {
		if id == env.ID {
			slot = i
			continue
		}
		peers = append(peers, id)
	}
	if slot < 0 {
		panic(fmt.Sprintf("consensus: acceptor %s not in set %v", env.ID, all))
	}
	return &Acceptor{
		env:    env,
		all:    append([]wire.SiteID(nil), all...),
		peers:  peers,
		slot:   slot,
		quorum: Quorum(len(all)),
		txns:   make(map[wire.TxnID]*atxn),
		open:   make(map[wire.TxnID]*atxn),
	}
}

func (a *Acceptor) get(txn wire.TxnID) *atxn {
	at := a.txns[txn]
	if at == nil {
		at = &atxn{insts: make(map[wire.SiteID]wire.InstanceVote)}
		a.txns[txn] = at
		a.open[txn] = at
	}
	return at
}

// decideLocked fixes at's outcome; the transaction is a tombstone from here
// on. Caller holds a.mu.
func (a *Acceptor) decideLocked(txn wire.TxnID, at *atxn, outcome wire.Outcome) {
	at.decided, at.outcome = true, outcome
	delete(a.open, txn)
}

// Handle processes one inbound message addressed to the acceptor role.
func (a *Acceptor) Handle(m wire.Message) {
	switch m.Kind {
	case wire.MsgVoteForward, wire.MsgPhase2a:
		a.handleAccept(m)
	case wire.MsgPhase1a:
		a.handlePhase1a(m)
	case wire.MsgPhase1b, wire.MsgPhase2b:
		a.handleLeadReply(m)
	case wire.MsgInquiry:
		a.handleInquiry(m)
	case wire.MsgPaxosEnd:
		a.handleEnd(m)
	case wire.MsgSyncRequest:
		a.handleSyncRequest(m)
	case wire.MsgSyncState:
		a.handleSyncState(m)
	}
}

// emit makes recs durable in order, then sends msgs — or nothing, if the
// force fails. Every handler funnels its effects through here so no reply can
// leave before the state it asserts is stable — the forces are the replicated
// decision's durability. rx and txn come from the message being handled (Tick
// has none): when it arrived inside a delivery batch the force is the
// batch's, shared with whatever else arrived with it.
func (a *Acceptor) emit(rx *wire.Delivery, txn wire.TxnID, recs []wal.Record, msgs []wire.Message) {
	a.env.ForceThenSend(rx, txn, recs, msgs)
}

// acceptLocked applies one accept (ballot, values, roster) to at and
// returns the forced record making it durable. Caller holds a.mu.
func (a *Acceptor) acceptLocked(txn wire.TxnID, at *atxn, ballot uint32, insts []wire.InstanceVote, roster []wire.RosterEntry) wal.Record {
	if ballot > at.promised {
		at.promised = ballot
	}
	at.roster = mergeRoster(at.roster, roster)
	for _, iv := range insts {
		cur, ok := at.insts[iv.Part]
		if !ok || ballot >= cur.Bal {
			at.insts[iv.Part] = wire.InstanceVote{Part: iv.Part, Vote: iv.Vote, Bal: ballot}
			if !ok {
				at.order = append(at.order, iv.Part)
			}
		}
	}
	return wal.Record{
		Kind: wal.KPaxosAccept, Role: wal.RoleAcceptor, Txn: txn,
		Ballot: ballot, Votes: a.voteInfosLocked(at), Participants: rosterInfo(at.roster),
	}
}

// snapshotLocked renders at's accepted instances sorted by participant.
func (a *Acceptor) snapshotLocked(at *atxn) []wire.InstanceVote {
	out := make([]wire.InstanceVote, 0, len(at.insts))
	for _, iv := range at.insts {
		out = append(out, iv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Part < out[j].Part })
	return out
}

// voteInfosLocked renders the accepted instances for a KPaxosAccept record.
// Each instance carries its own accepted ballot: one record snapshots all
// currently-accepted instances, and ones untouched by the record's accept
// still stand at their older ballots — flattening them onto the record's
// ballot would inflate stale values past genuinely chosen ones on replay.
func (a *Acceptor) voteInfosLocked(at *atxn) []wal.VoteInfo {
	snap := a.snapshotLocked(at)
	out := make([]wal.VoteInfo, 0, len(snap))
	for _, iv := range snap {
		out = append(out, wal.VoteInfo{Part: iv.Part, Vote: iv.Vote, Bal: iv.Bal})
	}
	return out
}

// tombstoneLocked fixes at as decided, clears any takeover round, and
// returns the durable tombstone record plus the decision messages owed to
// blocked inquirers. Caller holds a.mu.
func (a *Acceptor) tombstoneLocked(txn wire.TxnID, at *atxn, outcome wire.Outcome) ([]wal.Record, []wire.Message) {
	a.decideLocked(txn, at, outcome)
	at.lead = nil
	kind := wal.KAbort
	if outcome == wire.Commit {
		kind = wal.KCommit
	}
	recs := []wal.Record{{Kind: kind, Role: wal.RoleAcceptor, Txn: txn}}
	var msgs []wire.Message
	for _, id := range at.inquirers {
		a.env.RecordEvent(history.Event{Kind: history.EvRespond, Txn: txn, Outcome: outcome, Peer: id})
		msgs = append(msgs, wire.Message{
			Kind: wire.MsgDecision, Txn: txn, From: a.env.ID, To: id, Outcome: outcome,
		})
	}
	at.inquirers, at.inqSet = nil, nil
	return recs, msgs
}

// handleAccept serves the ballot-0 vote-forward and takeover Phase2a alike:
// accept the instance values unless a higher ballot was promised, force,
// then reply Phase2b. A decided transaction answers with its tombstone.
func (a *Acceptor) handleAccept(m wire.Message) {
	a.mu.Lock()
	at := a.get(m.Txn)
	if at.decided {
		reply := a.decidedReplyLocked(wire.MsgPhase2b, m, at)
		a.mu.Unlock()
		a.env.SendMsg(reply)
		return
	}
	if m.Ballot < at.promised {
		a.mu.Unlock()
		return
	}
	rec := a.acceptLocked(m.Txn, at, m.Ballot, m.Insts, m.Roster)
	reply := wire.Message{
		Kind: wire.MsgPhase2b, Txn: m.Txn, From: a.env.ID, To: m.From,
		Ballot: m.Ballot, Insts: a.snapshotLocked(at),
	}
	a.mu.Unlock()
	a.emit(m.Rx, m.Txn, []wal.Record{rec}, []wire.Message{reply})
}

// handlePhase1a serves a takeover leader's prepare: promise the ballot if
// it beats the current one, force the promise, and report the accepted
// values (with their ballots) and the roster. A prepare at exactly the
// promised ballot is the same leader re-sending after a lost Phase1b
// (ballots are partitioned by leader slot, so no other leader can hold it)
// and draws an idempotent re-promise with no new force — the promise is
// already durable, via its own record or the accept that raised promised.
func (a *Acceptor) handlePhase1a(m wire.Message) {
	a.mu.Lock()
	at := a.get(m.Txn)
	if at.decided {
		reply := a.decidedReplyLocked(wire.MsgPhase1b, m, at)
		a.mu.Unlock()
		a.env.SendMsg(reply)
		return
	}
	if m.Ballot < at.promised {
		a.mu.Unlock()
		return
	}
	var recs []wal.Record
	if m.Ballot > at.promised {
		at.promised = m.Ballot
		recs = append(recs, wal.Record{Kind: wal.KPaxosPromise, Role: wal.RoleAcceptor, Txn: m.Txn, Ballot: m.Ballot})
	}
	reply := wire.Message{
		Kind: wire.MsgPhase1b, Txn: m.Txn, From: a.env.ID, To: m.From,
		Ballot: m.Ballot, Insts: a.snapshotLocked(at),
		Roster: append([]wire.RosterEntry(nil), at.roster...),
	}
	a.mu.Unlock()
	a.emit(m.Rx, m.Txn, recs, []wire.Message{reply})
}

// decidedReplyLocked answers any phase message about a decided transaction
// with the tombstone. Caller holds a.mu.
func (a *Acceptor) decidedReplyLocked(kind wire.MsgKind, m wire.Message, at *atxn) wire.Message {
	return wire.Message{
		Kind: kind, Txn: m.Txn, From: a.env.ID, To: m.From,
		Ballot: m.Ballot, Decided: true, Outcome: at.outcome,
	}
}

// handleInquiry answers a participant blocked in doubt. Decided: the
// tombstone answers. Otherwise — known or unknown alike — the inquirer is
// recorded and a takeover round starts: tombstones are kept forever, so if
// the transaction was ever decided, a quorum member will say so in Phase1b,
// and if it never reached the acceptors, the takeover safely fixes abort
// through free instances. Never a presumption.
func (a *Acceptor) handleInquiry(m wire.Message) {
	a.mu.Lock()
	at := a.txns[m.Txn]
	if at != nil && at.decided {
		outcome := at.outcome
		a.mu.Unlock()
		a.env.RecordEvent(history.Event{Kind: history.EvRespond, Txn: m.Txn, Outcome: outcome, Peer: m.From})
		a.env.SendMsg(wire.Message{
			Kind: wire.MsgDecision, Txn: m.Txn, From: a.env.ID, To: m.From, Outcome: outcome,
		})
		return
	}
	at = a.get(m.Txn)
	if at.inqSet == nil {
		at.inqSet = make(map[wire.SiteID]bool)
	}
	if !at.inqSet[m.From] {
		at.inqSet[m.From] = true
		at.inquirers = append(at.inquirers, m.From)
	}
	var recs []wal.Record
	var msgs []wire.Message
	if at.lead == nil {
		recs, msgs = a.startTakeoverLocked(m.Txn, at, 1)
	}
	a.mu.Unlock()
	a.emit(m.Rx, m.Txn, recs, msgs)
}

// startTakeoverLocked opens a takeover round at this acceptor's slot for
// the given attempt: promise to itself (durably), count its own Phase1b,
// and prepare the peers. Caller holds a.mu.
func (a *Acceptor) startTakeoverLocked(txn wire.TxnID, at *atxn, attempt uint32) ([]wal.Record, []wire.Message) {
	ld := &lead{
		ballot:  ballotFor(attempt, a.slot+1),
		attempt: attempt, learning: true,
		p1:      make(map[wire.SiteID][]wire.InstanceVote),
		accepts: make(map[wire.SiteID]bool),
	}
	at.lead = ld
	var recs []wal.Record
	if ld.ballot > at.promised {
		at.promised = ld.ballot
		recs = append(recs, wal.Record{
			Kind: wal.KPaxosPromise, Role: wal.RoleAcceptor, Txn: txn, Ballot: ld.ballot,
		})
	}
	ld.p1[a.env.ID] = a.snapshotLocked(at)
	var msgs []wire.Message
	for _, id := range a.peers {
		msgs = append(msgs, wire.Message{
			Kind: wire.MsgPhase1a, Txn: txn, From: a.env.ID, To: id, Ballot: ld.ballot,
		})
	}
	r2, m2 := a.leadAdvanceLocked(txn, at) // a single-acceptor set finishes here
	return append(recs, r2...), append(msgs, m2...)
}

// leadAdvanceLocked moves the takeover round through its phase transitions
// whenever a quorum is in hand: Phase1b quorum → self-accept the chosen
// values and Phase2a the peers; Phase2b quorum → fix the outcome, tombstone
// it, answer the inquirers and release the peers. Caller holds a.mu.
func (a *Acceptor) leadAdvanceLocked(txn wire.TxnID, at *atxn) ([]wal.Record, []wire.Message) {
	ld := at.lead
	if ld == nil || at.decided {
		return nil, nil
	}
	var recs []wal.Record
	var msgs []wire.Message
	if ld.learning {
		if len(ld.p1) < a.quorum {
			return nil, nil
		}
		// Free instances are proposed as explicit VoteNo: the roster names
		// them when known; when no quorum member ever learned the roster the
		// inquirers stand in, so even a takeover for a transaction the
		// acceptors never saw anchors its abort on the Phase2b quorum below
		// instead of deriving it from absence.
		ld.insts = chooseValues(ld.p1, at.roster, at.inquirers)
		ld.learning = false
		ld.stall = 0
		recs = append(recs, a.acceptLocked(txn, at, ld.ballot, ld.insts, at.roster))
		ld.accepts[a.env.ID] = true
		for _, id := range a.peers {
			msgs = append(msgs, wire.Message{
				Kind: wire.MsgPhase2a, Txn: txn, From: a.env.ID, To: id,
				Ballot: ld.ballot,
				Insts:  append([]wire.InstanceVote(nil), ld.insts...),
				Roster: append([]wire.RosterEntry(nil), at.roster...),
			})
		}
	}
	if !ld.learning && len(ld.accepts) >= a.quorum {
		outcome := outcomeOf(at.roster, ld.insts)
		// The quorum of Phase2b accepts IS the fix-point: this leader decided
		// the transaction. Recorded here so the history judge sees a decision
		// even when the coordinator that started the transaction never came
		// back (a duplicate of the coordinator's own decide event carries the
		// same outcome by Paxos safety, and the judge keeps the first).
		a.env.RecordEvent(history.Event{Kind: history.EvDecide, Txn: txn, Outcome: outcome})
		r2, m2 := a.tombstoneLocked(txn, at, outcome)
		recs = append(recs, r2...)
		msgs = append(msgs, m2...)
		for _, id := range a.peers {
			msgs = append(msgs, wire.Message{
				Kind: wire.MsgPaxosEnd, Txn: txn, From: a.env.ID, To: id, Outcome: outcome,
			})
		}
	}
	return recs, msgs
}

// handleLeadReply feeds a peer's Phase1b/Phase2b into this acceptor's
// takeover round. A Decided reply short-circuits: the peer's tombstone is
// the decision.
func (a *Acceptor) handleLeadReply(m wire.Message) {
	a.mu.Lock()
	at := a.txns[m.Txn]
	if at == nil || at.lead == nil || at.decided {
		a.mu.Unlock()
		return
	}
	if m.Decided {
		recs, msgs := a.tombstoneLocked(m.Txn, at, m.Outcome)
		a.mu.Unlock()
		a.emit(m.Rx, m.Txn, recs, msgs)
		return
	}
	ld := at.lead
	switch {
	case m.Kind == wire.MsgPhase1b && ld.learning && m.Ballot == ld.ballot:
		ld.p1[m.From] = m.Insts
		at.roster = mergeRoster(at.roster, m.Roster)
	case m.Kind == wire.MsgPhase2b && !ld.learning && m.Ballot == ld.ballot:
		ld.accepts[m.From] = true
	default:
		a.mu.Unlock()
		return
	}
	recs, msgs := a.leadAdvanceLocked(m.Txn, at)
	a.mu.Unlock()
	a.emit(m.Rx, m.Txn, recs, msgs)
}

// handleEnd collapses the transaction to its decided tombstone: the
// coordinator (or a takeover leader) has announced the decision and no
// instance state is needed anymore. The tombstone itself is permanent.
func (a *Acceptor) handleEnd(m wire.Message) {
	a.mu.Lock()
	at := a.get(m.Txn)
	if at.decided {
		a.mu.Unlock()
		return
	}
	recs, msgs := a.tombstoneLocked(m.Txn, at, m.Outcome)
	at.insts, at.order, at.roster = nil, nil, nil
	a.mu.Unlock()
	a.emit(m.Rx, m.Txn, recs, msgs)
}

// handleSyncRequest serves a rebooting peer the state-transfer artifact:
// one SyncState message per known transaction, derived from exactly the
// per-transaction image a checkpoint would retain — decided transactions as
// their tombstone, undecided ones as promise ballot, accepted values and
// roster (see CheckpointEntries).
func (a *Acceptor) handleSyncRequest(m wire.Message) {
	a.mu.Lock()
	txns := sortedTxns(a.txns)
	var msgs []wire.Message
	for _, txn := range txns {
		at := a.txns[txn]
		sm := wire.Message{Kind: wire.MsgSyncState, Txn: txn, From: a.env.ID, To: m.From}
		if at.decided {
			sm.Decided = true
			sm.Outcome = at.outcome
		} else {
			sm.Ballot = at.promised
			sm.Insts = a.snapshotLocked(at)
			sm.Roster = append([]wire.RosterEntry(nil), at.roster...)
		}
		msgs = append(msgs, sm)
	}
	a.mu.Unlock()
	a.env.FanoutMsgs(msgs)
}

// handleSyncState merges a peer's image into this acceptor: decided
// outcomes are adopted as tombstones, otherwise higher ballots and
// higher-ballot instance values are taken and forced — the catch-up is as
// durable as if the original messages had arrived.
func (a *Acceptor) handleSyncState(m wire.Message) {
	a.mu.Lock()
	at := a.get(m.Txn)
	if at.decided {
		a.mu.Unlock()
		return
	}
	if m.Decided {
		recs, msgs := a.tombstoneLocked(m.Txn, at, m.Outcome)
		a.mu.Unlock()
		a.emit(m.Rx, m.Txn, recs, msgs)
		return
	}
	changed := false
	if m.Ballot > at.promised {
		at.promised = m.Ballot
		changed = true
	}
	if len(at.roster) == 0 && len(m.Roster) > 0 {
		at.roster = mergeRoster(at.roster, m.Roster)
		changed = true
	}
	for _, iv := range m.Insts {
		cur, ok := at.insts[iv.Part]
		if !ok || iv.Bal > cur.Bal {
			at.insts[iv.Part] = iv
			if !ok {
				at.order = append(at.order, iv.Part)
			}
			changed = true
		}
	}
	if !changed {
		a.mu.Unlock()
		return
	}
	rec := wal.Record{
		Kind: wal.KPaxosAccept, Role: wal.RoleAcceptor, Txn: m.Txn,
		Ballot: at.promised, Votes: a.voteInfosLocked(at), Participants: rosterInfo(at.roster),
	}
	a.mu.Unlock()
	a.emit(m.Rx, m.Txn, []wal.Record{rec}, nil)
}

// Recover rebuilds acceptor state from the stable log — the checkpointed
// image (decided tombstones, live promises and accepts) plus the replay
// suffix — then asks the peers for everything it slept through: each peer
// answers with its own checkpoint-shaped image via SyncState.
func (a *Acceptor) Recover() error {
	a.mu.Lock()
	for _, rec := range a.env.Log.Records() {
		if rec.Role != wal.RoleAcceptor {
			continue
		}
		at := a.get(rec.Txn)
		switch rec.Kind {
		case wal.KPaxosPromise:
			if rec.Ballot > at.promised {
				at.promised = rec.Ballot
			}
		case wal.KPaxosAccept:
			if rec.Ballot > at.promised {
				at.promised = rec.Ballot
			}
			at.roster = mergeRoster(at.roster, rosterEntries(rec.Participants))
			// Each instance is restored at its own recorded ballot, not the
			// record's: a snapshot record stamps the accept ballot only on
			// the instances that accept actually touched.
			for _, v := range rec.Votes {
				cur, ok := at.insts[v.Part]
				if !ok || v.Bal >= cur.Bal {
					at.insts[v.Part] = wire.InstanceVote{Part: v.Part, Vote: v.Vote, Bal: v.Bal}
					if !ok {
						at.order = append(at.order, v.Part)
					}
				}
			}
		case wal.KCommit:
			a.decideLocked(rec.Txn, at, wire.Commit)
		case wal.KAbort:
			a.decideLocked(rec.Txn, at, wire.Abort)
		}
	}
	msgs := make([]wire.Message, 0, len(a.peers))
	for _, id := range a.peers {
		msgs = append(msgs, wire.Message{Kind: wire.MsgSyncRequest, From: a.env.ID, To: id})
	}
	a.mu.Unlock()
	a.env.FanoutMsgs(msgs)
	return nil
}

// Tick retries timeout-driven takeover work: the current phase of every
// open round is re-sent, and a round stalled long enough re-ballots at the
// next attempt — a concurrent leader at a higher ballot may have silenced
// this one.
func (a *Acceptor) Tick() {
	a.mu.Lock()
	var recs []wal.Record
	var msgs []wire.Message
	idle := false
	for _, txn := range sortedTxns(a.open) {
		at := a.open[txn]
		ld := at.lead
		if ld == nil {
			if at.idleTicks++; at.idleTicks >= 2 {
				at.idleTicks = 0
				idle = true
			}
			continue
		}
		ld.stall++
		if ld.stall >= 4 {
			r2, m2 := a.startTakeoverLocked(txn, at, ld.attempt+1)
			recs = append(recs, r2...)
			msgs = append(msgs, m2...)
			continue
		}
		if ld.learning {
			for _, id := range a.peers {
				if _, ok := ld.p1[id]; ok {
					continue
				}
				msgs = append(msgs, wire.Message{
					Kind: wire.MsgPhase1a, Txn: txn, From: a.env.ID, To: id, Ballot: ld.ballot,
				})
			}
		} else {
			for _, id := range a.peers {
				if ld.accepts[id] {
					continue
				}
				msgs = append(msgs, wire.Message{
					Kind: wire.MsgPhase2a, Txn: txn, From: a.env.ID, To: id,
					Ballot: ld.ballot,
					Insts:  append([]wire.InstanceVote(nil), ld.insts...),
					Roster: append([]wire.RosterEntry(nil), at.roster...),
				})
			}
		}
	}
	if idle {
		for _, id := range a.peers {
			msgs = append(msgs, wire.Message{Kind: wire.MsgSyncRequest, From: a.env.ID, To: id})
		}
	}
	a.mu.Unlock()
	a.emit(nil, wire.TxnID{}, recs, msgs)
}

// Quiesced reports whether every known transaction is decided: tombstones
// are retained by design and do not count as pending protocol state.
func (a *Acceptor) Quiesced() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.open) == 0
}

// Pending returns the number of undecided transactions (tests).
func (a *Acceptor) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.open)
}

// DecidedTxns returns the decided transactions (the permanent tombstones),
// sorted (tests and smoke checks).
func (a *Acceptor) DecidedTxns() []wire.TxnID {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []wire.TxnID
	for _, txn := range sortedTxns(a.txns) {
		if a.txns[txn].decided {
			out = append(out, txn)
		}
	}
	return out
}

// Outcome reports the decided outcome for txn, if decided (tests).
func (a *Acceptor) Outcome(txn wire.TxnID) (wire.Outcome, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	at := a.txns[txn]
	if at == nil || !at.decided {
		return wire.Abort, false
	}
	return at.outcome, true
}

// LiveRecord reports whether a checkpoint must keep rec: promises and
// accepts of undecided transactions, and the tombstone of decided ones — a
// decided transaction collapses to its single decision record, which is the
// state-transfer artifact peers sync from and is never collected.
func (a *Acceptor) LiveRecord(rec wal.Record) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	at := a.txns[rec.Txn]
	if at == nil {
		return false
	}
	switch rec.Kind {
	case wal.KCommit, wal.KAbort:
		return at.decided
	default:
		return !at.decided
	}
}

// CheckpointEntries snapshots the acceptor's transactions for a
// RecCheckpoint record: decided tombstones and in-flight rounds, sorted by
// transaction. This image — tombstones plus live accepts — is the same
// artifact handleSyncRequest transfers to a rebooting peer.
func (a *Acceptor) CheckpointEntries() []wal.CheckpointEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]wal.CheckpointEntry, 0, len(a.txns))
	for _, txn := range sortedTxns(a.txns) {
		at := a.txns[txn]
		e := wal.CheckpointEntry{Txn: txn, Role: wal.RoleAcceptor, Phase: wal.CkptVoting}
		if at.decided {
			e.Decided = true
			e.Outcome = at.outcome
		}
		out = append(out, e)
	}
	return out
}

// DebugState renders acceptor state deterministically for model-checker
// hashing (the Coordinator.DebugState contract).
func (a *Acceptor) DebugState() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var rows []string
	for _, txn := range sortedTxns(a.txns) {
		at := a.txns[txn]
		var b strings.Builder
		fmt.Fprintf(&b, "%s decided=%v out=%s prom=%d insts=[%s] inq=%d",
			txn, at.decided, at.outcome, at.promised, fmtInsts(a.snapshotLocked(at)), len(at.inquirers))
		if ld := at.lead; ld != nil {
			fmt.Fprintf(&b, " lead[bal=%d learn=%v p1=%d acc=%d insts=[%s]]",
				ld.ballot, ld.learning, len(ld.p1), len(ld.accepts), fmtInsts(ld.insts))
		}
		rows = append(rows, b.String())
	}
	return strings.Join(rows, "\n")
}

// sortedTxns returns the keys of txns in the order of their "coord:seq"
// rendering, each rendered once.
func sortedTxns(txns map[wire.TxnID]*atxn) []wire.TxnID {
	type keyed struct {
		key string
		txn wire.TxnID
	}
	ks := make([]keyed, 0, len(txns))
	for txn := range txns {
		ks = append(ks, keyed{txn.String(), txn})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]wire.TxnID, len(ks))
	for i := range ks {
		out[i] = ks[i].txn
	}
	return out
}
