package core

import (
	"errors"

	"prany/internal/wal"
	"prany/internal/wire"
)

// ErrDecidePending is returned by coordinator operations whose decision is
// being fixed by a replicated decider and has not completed yet: the outcome
// is not known, no decision was communicated, and the caller should wait for
// the decide fix-point (Commit does; a deterministic driver delivers the
// consensus messages itself and re-polls).
var ErrDecidePending = errors.New("core: replicated decision pending")

// DecideRequest carries everything a decider needs to fix one transaction's
// outcome: the tentative outcome computed from the votes, the per-participant
// vote values (one consensus instance each under Paxos Commit), and the
// chosen variant, whose wire.Rule row fixes the logging discipline.
type DecideRequest struct {
	Txn    wire.TxnID
	Chosen wire.Protocol
	// Outcome is the tentative outcome from the voting phase: commit iff
	// every vote is an explicit yes. A single decider fixes exactly this
	// value; a replicated one proposes it and fixes whatever the acceptor
	// quorum chooses (the same value, unless a takeover leader got there
	// first).
	Outcome wire.Outcome
	// Roster is the participant set with protocols, as logged in the
	// initiation record — replicated deciders ship it to acceptors so a
	// takeover leader can finish the decision phase.
	Roster []wal.ParticipantInfo
	// Votes is the per-participant instance values (yes and read-only votes
	// map to yes; no and missing votes to no). Set only for replicated
	// deciders; the conjunction of the instances is the outcome.
	Votes []wire.InstanceVote
}

// Decider is the decision fix-point of the coordinator: the step between
// "the votes are in" and "the outcome is fixed and durable". SingleDecider
// is the paper's coordinator — one forced decision record in the local log.
// A replicated decider (internal/consensus) makes the decision durable on a
// quorum of acceptor sites instead, so it survives coordinator crashes.
//
// The participant-facing protocol is untouched either way: presumptions,
// acknowledgment subsets and forgetting rules never depend on *how* the
// coordinator fixed its decision, only on the decision itself.
type Decider interface {
	// Replicated reports whether decisions are fixed off-site. A replicated
	// coordinator forces the initiation record for every chosen variant
	// (the record is what tells recovery to learn instead of presume) and
	// must tolerate Decide returning before the outcome is fixed.
	Replicated() bool

	// Decide fixes the outcome for req. When done is true the returned
	// outcome is fixed (and durable) and fixed is never called. When done
	// is false the decision is in flight: fixed will be invoked exactly
	// once with the chosen outcome, possibly on another goroutine (a
	// consensus message delivery). An error means the outcome could not be
	// driven durable; no decision was communicated.
	Decide(req DecideRequest, fixed func(wire.Outcome)) (outcome wire.Outcome, done bool, err error)

	// HandlePhase processes one inbound consensus message addressed to this
	// coordinator's decider (Phase1b or Phase2b replies from acceptors).
	HandlePhase(m wire.Message)

	// RecoverUndecided re-learns the outcome of a transaction whose
	// initiation record survived a crash with no decision record. A single
	// decider presumes abort (the paper's rule); a replicated one must ask
	// the acceptors — the decision may have been fixed and announced while
	// this replica was down. Semantics of done/fixed are as in Decide.
	RecoverUndecided(txn wire.TxnID, roster []wal.ParticipantInfo, fixed func(wire.Outcome)) (outcome wire.Outcome, done bool)

	// Finished tells the decider the coordinator has forgotten txn: every
	// expected acknowledgment arrived and the end record (if any) is
	// written. Replicated deciders release the acceptors' instance state;
	// outcome lets them do so even when the round itself is already gone
	// (a recovery redrive never registered one).
	Finished(txn wire.TxnID, outcome wire.Outcome)

	// Tick retries timeout-driven consensus work (re-sending unanswered
	// phase messages). The site layer drives it through Coordinator.Tick.
	Tick()

	// DebugState renders decider state for model-checker hashing, with the
	// Coordinator.DebugState determinism contract. Must return "" when the
	// decider holds no state (SingleDecider always does), so single-decider
	// state hashes are unchanged by the interface seam.
	DebugState() string
}

// SingleDecider is the paper's decision step: force the decision record in
// the coordinator's own log, then send. It reproduces the pre-interface
// force-then-send path bit for bit — same records, same costs, same error
// handling.
type SingleDecider struct {
	env Env
}

// NewSingleDecider returns the local-log decider for env.
func NewSingleDecider(env Env) *SingleDecider { return &SingleDecider{env: env} }

// Replicated implements Decider: decisions live in the local log only.
func (s *SingleDecider) Replicated() bool { return false }

// Decide implements Decider. Every variant forces the commit record before
// any commit decision leaves the site. An abort record is forced only when
// the chosen variant's row says so (wire.Rule.ForcesAbort); the others
// presume aborts or reconstruct them from the initiation record.
func (s *SingleDecider) Decide(req DecideRequest, _ func(wire.Outcome)) (wire.Outcome, bool, error) {
	if req.Outcome == wire.Commit {
		if err := s.env.force(wal.Record{
			Kind: wal.KCommit, Role: wal.RoleCoord, Txn: req.Txn, Participants: req.Roster,
		}); err != nil {
			// The failed force may leave the commit record in the log
			// buffer, where a later successful force would stabilize it —
			// and recovery would then re-drive a commit this coordinator
			// never announced. A lazy abort record supersedes it (recovery
			// takes the last decision record).
			s.env.appendLazy(wal.Record{
				Kind: wal.KAbort, Role: wal.RoleCoord, Txn: req.Txn, Participants: req.Roster,
			})
			return wire.Abort, true, err
		}
	} else if req.Chosen.Rule().ForcesAbort() {
		if err := s.env.force(wal.Record{
			Kind: wal.KAbort, Role: wal.RoleCoord, Txn: req.Txn, Participants: req.Roster,
		}); err != nil {
			return wire.Abort, true, err
		}
	} else {
		return req.Outcome, true, nil
	}
	if s.env.Met != nil {
		s.env.Met.Decision(s.env.ID)
	}
	return req.Outcome, true, nil
}

// HandlePhase implements Decider; a single decider receives no consensus
// traffic.
func (s *SingleDecider) HandlePhase(wire.Message) {}

// RecoverUndecided implements Decider: an initiation record without a
// decision record means the crash preceded the decision, and the transaction
// aborts (Section 4.2).
func (s *SingleDecider) RecoverUndecided(wire.TxnID, []wal.ParticipantInfo, func(wire.Outcome)) (wire.Outcome, bool) {
	return wire.Abort, true
}

// Finished implements Decider; nothing to release.
func (s *SingleDecider) Finished(wire.TxnID, wire.Outcome) {}

// Tick implements Decider; nothing to retry.
func (s *SingleDecider) Tick() {}

// DebugState implements Decider; a single decider holds no state, and the
// empty string keeps pre-interface state hashes unchanged.
func (s *SingleDecider) DebugState() string { return "" }
