package core

import (
	"sync"

	"prany/internal/history"
	"prany/internal/wal"
	"prany/internal/wire"
)

// Recover rebuilds the coordinator's protocol table from the stable log
// after a crash and re-initiates the decision phase for every unfinished
// transaction, following Section 4.2 of the paper:
//
//   - A decision record *without* an initiation record means PrN or PrA was
//     used. If no end record follows, the recorded decision is re-driven.
//     (Under PrA the decision is always commit, since PrA never logs
//     aborts; under PrN it may be either.)
//   - An initiation record with every recorded participant running PrC
//     means PrC was used: with no commit and no end record, the transaction
//     is aborted and the abort re-driven. With a commit record, nothing
//     remains to do — the commit record logically eliminated the initiation
//     record and PrC never re-submits commit decisions.
//   - An initiation record with mixed protocols means PrAny. Only an
//     initiation record: the transaction aborts, and the abort is re-driven
//     to the PrN and PrC participants — not to PrA participants, in
//     accordance with PrA. Initiation plus commit without end: the commit
//     is re-driven to the PrN and PrA participants — not to PrC
//     participants, in accordance with PrC.
//
// Under U2PC and C2PC the coordinator interprets its log by its native
// protocol instead; C2PC additionally re-expects acknowledgments from every
// recipient, faithfully reproducing its unbounded retention.
//
// Transactions with no stable records at all — active ones whose initiation
// was never forced (PrN/PrA), or PrA aborts — are simply absent: inquiries
// about them are answered by presumption, which is the correct answer for
// every case that can reach this point under StrategyPrAny, and the
// Theorem-1 bug under U2PC.
func (c *Coordinator) Recover() error {
	type seen struct {
		initiation *wal.Record
		decision   *wal.Record
		outcome    wire.Outcome
		decided    bool
		ended      bool
		// remote holds coordinator-log participants' shipped write sets
		// (one remote-writes record each).
		remote      map[wire.SiteID][]wal.Update
		remoteOrder []wire.SiteID
	}
	byTxn := make(map[wire.TxnID]*seen)
	var order []wire.TxnID
	for _, rec := range c.env.Log.Records() {
		if rec.Kind == wal.KRecCheckpoint {
			// Checkpoint snapshot: everything before it is the checkpointed
			// image (live records only, by construction), everything after
			// is the replay suffix. The records themselves stay the replay
			// source; the snapshot's entry list bounds what a scan can find.
			continue
		}
		if rec.Role != wal.RoleCoord {
			continue // participant-role record; not ours
		}
		s := byTxn[rec.Txn]
		if s == nil {
			s = &seen{}
			byTxn[rec.Txn] = s
			order = append(order, rec.Txn)
		}
		switch rec.Kind {
		case wal.KInitiation:
			r := rec
			s.initiation = &r
		case wal.KCommit:
			r := rec
			s.decision = &r
			s.outcome, s.decided = wire.Commit, true
		case wal.KAbort:
			r := rec
			s.decision = &r
			s.outcome, s.decided = wire.Abort, true
		case wal.KEnd:
			s.ended = true
		case wal.KRemoteWrites:
			if s.remote == nil {
				s.remote = make(map[wire.SiteID][]wal.Update)
			}
			if _, dup := s.remote[rec.Coord]; !dup {
				s.remoteOrder = append(s.remoteOrder, rec.Coord)
			}
			s.remote[rec.Coord] = rec.Writes
		}
	}

	var allMsgs []wire.Message
	for _, txn := range order {
		s := byTxn[txn]
		if s.ended {
			continue // completed before the crash; only garbage remains
		}

		// Determine the protocol used and the participant set.
		var info []wal.ParticipantInfo
		switch {
		case s.decision != nil:
			info = s.decision.Participants
		case s.initiation != nil:
			info = s.initiation.Participants
		case len(s.remote) > 0:
			// Only remote-writes records survive: an undecided
			// coordinator-log transaction. The voters it logged for are
			// the participants that must hear the (presumed) abort;
			// silent ones resolve by their own inquiries.
			for _, id := range s.remoteOrder {
				info = append(info, wal.ParticipantInfo{ID: id, Proto: wire.CL})
			}
		default:
			continue // no coordinator records: nothing to recover
		}
		chosen := c.cfg.Native
		if c.cfg.Strategy == StrategyPrAny {
			protos := make([]wire.Protocol, len(info))
			for i, pi := range info {
				protos[i] = pi.Proto
			}
			chosen = Select(protos)
		}

		if !s.decided && s.initiation != nil && c.decider.Replicated() {
			// Replicated decision, crash before the (lazy) decision record
			// landed: the outcome may nonetheless be fixed on the acceptor
			// quorum — and may already have been announced by a takeover
			// leader — so presuming abort here would split the decision.
			// Learn it from the acceptors instead; the fix-point callback
			// finishes the decision phase.
			c.relearnUndecided(txn, chosen, s.initiation.Participants, s.remote)
			continue
		}

		outcome := wire.Abort // initiation without decision: abort
		if s.decided {
			outcome = s.outcome
		}
		if r := chosen.Rule(); r.ForcesInitiation() && !r.EndsOn(outcome) && c.cfg.Strategy != StrategyC2PC {
			// The decision record closed the initiation record and no end
			// record is owed: the variant forgot the transaction at the
			// force and never re-submits this decision — PrC commits only.
			// (PrA/IYV aborts force no initiation; a replicated decider
			// must still see them Finished. C2PC still owes every
			// participant a decision and itself their acks.)
			continue
		}

		ct := &ctxn{
			txn:       txn,
			state:     cDraining,
			parts:     make(map[wire.SiteID]*cpart, len(info)),
			votesDone: make(chan struct{}),
			chosen:    chosen,
			decided:   true,
			outcome:   outcome,
			voteOnce:  sync.Once{},
		}
		ct.closeVotes()
		for _, pi := range info {
			ct.parts[pi.ID] = &cpart{proto: pi.Proto, voted: true, vote: wire.VoteYes, writes: s.remote[pi.ID]}
			ct.order = append(ct.order, pi.ID)
		}

		sh := c.txns.lock(txn)
		sh.m[txn] = ct
		msgs := c.redriveMsgsLocked(ct)
		sh.mu.Unlock()
		if c.env.Met != nil {
			c.env.Met.PTInsert(c.env.ID)
		}
		// Heal the history: the decide event may have been lost with the
		// crash (it is recorded only after the decision record is forced,
		// so a re-recorded event can never change the outcome).
		c.env.event(history.Event{Kind: history.EvDecide, Txn: txn, Outcome: outcome})

		sh = c.txns.lock(txn)
		finished := c.maybeFinishLocked(sh.m, ct)
		sh.mu.Unlock()
		if finished {
			c.decider.Finished(txn, outcome)
		}
		allMsgs = append(allMsgs, msgs...)
	}

	c.env.event(history.Event{Kind: history.EvRecover})
	c.env.fanout(allMsgs)
	return nil
}

// relearnUndecided re-inserts an undecided replicated-decision transaction
// and asks the decider to learn its outcome from the acceptor quorum. The
// entry sits in the deciding state — inquiries stay unanswered, exactly as
// during the original decision window — until the fix-point fires finalize.
func (c *Coordinator) relearnUndecided(txn wire.TxnID, chosen wire.Protocol, info []wal.ParticipantInfo, remote map[wire.SiteID][]wal.Update) {
	ct := &ctxn{
		txn:        txn,
		state:      cDeciding,
		parts:      make(map[wire.SiteID]*cpart, len(info)),
		votesDone:  make(chan struct{}),
		decideDone: make(chan struct{}),
		chosen:     chosen,
	}
	ct.closeVotes()
	for _, pi := range info {
		ct.parts[pi.ID] = &cpart{proto: pi.Proto, voted: true, vote: wire.VoteYes, writes: remote[pi.ID]}
		ct.order = append(ct.order, pi.ID)
	}
	sh := c.txns.lock(txn)
	sh.m[txn] = ct
	sh.mu.Unlock()
	if c.env.Met != nil {
		c.env.Met.PTInsert(c.env.ID)
	}
	outcome, done := c.decider.RecoverUndecided(txn, info, func(o wire.Outcome) { c.finalize(ct, o) })
	if done {
		c.finalize(ct, outcome)
	}
}

// redriveMsgsLocked computes the recovery-time decision recipients: the
// sites whose acknowledgment the strategy still expects. Participants whose
// protocol will never acknowledge this outcome are *not* re-notified —
// their own presumption (or inquiry) resolves them, per Section 4.2 — with
// the exception of C2PC, which re-notifies and re-awaits everyone.
func (c *Coordinator) redriveMsgsLocked(ct *ctxn) []wire.Message {
	var msgs []wire.Message
	for _, id := range ct.order {
		p := ct.parts[id]
		p.expectAck = c.expectsAck(ct, p)
		if !p.expectAck {
			continue
		}
		p.sentDecision = true
		msgs = append(msgs, wire.Message{
			Kind: wire.MsgDecision, Txn: ct.txn, From: c.env.ID, To: id,
			// Coordinator-log participants may have lost everything while
			// this coordinator was down: attach their logged write sets.
			Outcome: ct.outcome, Writes: p.writes,
		})
	}
	return msgs
}
