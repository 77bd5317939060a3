package consensus_test

import (
	"testing"
	"time"

	"prany/internal/sim"
	"prany/internal/wire"
	"prany/internal/workload"
)

func threeAcceptorCluster(t *testing.T) *sim.Cluster {
	t.Helper()
	return newCluster(t, 3)
}

// newCluster is a PrN and a PrC participant under PrAny, the decision
// replicated over the given number of acceptors (0 = single decider).
func newCluster(t *testing.T, acceptors int) *sim.Cluster {
	t.Helper()
	c, err := sim.New(sim.Spec{
		Participants: []sim.PartSpec{
			{ID: "p1", Proto: wire.PrN},
			{ID: "p2", Proto: wire.PrC},
		},
		VoteTimeout: 500 * time.Millisecond,
		Acceptors:   acceptors,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// A replicated-decider cluster commits and aborts like a plain one.
func TestReplicatedCommitAndAbort(t *testing.T) {
	c := threeAcceptorCluster(t)
	plans := workload.Generate(workload.Spec{
		Txns: 20, CommitFraction: 0.7, Seed: 7,
	}, c.PartIDs())
	res := c.Run(plans)
	if res.Errors > 0 {
		t.Fatalf("errors: %+v", res)
	}
	if res.Commits == 0 || res.Aborts == 0 {
		t.Fatalf("want both outcomes, got %+v", res)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// The replicated decision survives a coordinator crash and restart: the
// recovered coordinator learns fixed outcomes from the acceptor quorum
// instead of presuming abort.
func TestReplicatedDecisionSurvivesCoordinatorRestart(t *testing.T) {
	c := threeAcceptorCluster(t)
	plans := workload.Generate(workload.Spec{
		Txns: 5, CommitFraction: 1, Seed: 3,
	}, c.PartIDs())
	res := c.Run(plans)
	if res.Commits != 5 {
		t.Fatalf("want 5 commits, got %+v", res)
	}
	if err := c.CrashRecover(sim.CoordID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("cluster did not quiesce after coordinator restart")
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// The non-blocking claim: the coordinator fixes a commit on the acceptor
// quorum, crashes for good before any participant hears the decision, and
// the blocked participants still terminate — their escalated inquiries make
// an acceptor take over and finish the decision. A single-decider cluster
// blocks forever in this schedule (the model checker proves that side).
func TestTakeoverUnblocksParticipantsAfterCoordinatorDeath(t *testing.T) {
	c := threeAcceptorCluster(t)
	// The coordinator's decision announcements never arrive: the crash
	// "happens" between fixing the decision and telling anyone.
	undrop := c.Net.AddDropRule(func(m wire.Message) bool {
		return m.Kind == wire.MsgDecision && m.From == sim.CoordID
	})

	plans := workload.Generate(workload.Spec{
		Txns: 1, CommitFraction: 1, Seed: 11,
	}, c.PartIDs())
	res := c.RunPlan(plans[0])
	if res.Err != nil || res.Outcome != wire.Commit {
		t.Fatalf("commit failed: %+v", res)
	}
	c.Coord.Crash() // permanent: never recovered
	c.Net.RemoveDropRule(undrop)

	deadline := time.Now().Add(5 * time.Second)
	for {
		blocked := 0
		for _, id := range c.PartIDs() {
			blocked += len(c.Parts[id].Participant().InDoubt())
		}
		if blocked == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("participants still blocked in doubt: %d", blocked)
		}
		c.TickAll()
		time.Sleep(2 * time.Millisecond)
	}
	if v := c.AtomicityViolations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	// The takeover must have finished the *commit* the quorum fixed — an
	// abort here would be a split decision.
	for _, id := range []wire.SiteID{"a1", "a2", "a3"} {
		if out, ok := c.Accs[id].Acceptor().Outcome(res.Txn); ok && out != wire.Commit {
			t.Fatalf("acceptor %s decided %s for a quorum-fixed commit", id, out)
		}
	}
}

// A rebooted acceptor that slept through every decision catches up from a
// peer's checkpoint image: the survivors checkpoint (collapsing decided
// transactions to tombstones), and the reboot's sync round rebuilds exactly
// those tombstones from the peers' answers.
func TestAcceptorCatchesUpFromPeerCheckpoint(t *testing.T) {
	c := threeAcceptorCluster(t)
	c.Accs["a1"].Crash() // down before any transaction: learns nothing

	plans := workload.Generate(workload.Spec{
		Txns: 4, CommitFraction: 1, Seed: 5,
	}, c.PartIDs())
	res := c.Run(plans)
	if res.Commits != 4 {
		t.Fatalf("want 4 commits with a 2/3 quorum, got %+v", res)
	}

	// Let the survivors finish (PaxosEnd tombstones), then checkpoint them:
	// their logs now hold only the checkpoint image.
	peer := c.Accs["a2"].Acceptor()
	deadline := time.Now().Add(5 * time.Second)
	for len(peer.DecidedTxns()) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("surviving acceptors never saw all decisions: %d", len(peer.DecidedTxns()))
		}
		c.TickAll()
		time.Sleep(2 * time.Millisecond)
	}
	for _, id := range []wire.SiteID{"a2", "a3"} {
		if _, err := c.Accs[id].Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	if err := c.Accs["a1"].Recover(); err != nil {
		t.Fatal(err)
	}
	reborn := c.Accs["a1"].Acceptor()
	for {
		if caughtUp(peer.DecidedTxns(), reborn) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rebooted acceptor did not catch up from peer state")
		}
		c.TickAll()
		time.Sleep(2 * time.Millisecond)
	}
	for _, txn := range peer.DecidedTxns() {
		want, _ := peer.Outcome(txn)
		got, ok := reborn.Outcome(txn)
		if !ok || got != want {
			t.Fatalf("txn %s: peer decided %s, rebooted acceptor has %v (known=%v)", txn, want, got, ok)
		}
	}
}

type outcomeReader interface {
	Outcome(wire.TxnID) (wire.Outcome, bool)
}

func caughtUp(txns []wire.TxnID, a outcomeReader) bool {
	for _, txn := range txns {
		if _, ok := a.Outcome(txn); !ok {
			return false
		}
	}
	return len(txns) > 0
}

// What the quorum round costs, in the paper's units: per committed
// transaction the replicated decider sends nine messages the single decider
// does not (the vote forward to, the Phase2b from and the end notice to each
// of three acceptors) and the cluster forces five more records (an accept
// record and a tombstone at each acceptor, less the coordinator's own
// decision force, which leaves the critical path). The benchmark's
// paxos-file workload prices the same round in milliseconds.
func TestReplicationCostsMessagesAndForces(t *testing.T) {
	const txns = 10
	cost := func(acceptors int) (protocol, quorum, forces uint64) {
		c := newCluster(t, acceptors)
		plans := workload.Generate(workload.Spec{Txns: txns, CommitFraction: 1, Seed: 19}, c.PartIDs())
		if res := c.Run(plans); res.Commits != txns {
			t.Fatalf("acceptors=%d: want %d commits, got %+v", acceptors, txns, res)
		}
		if !c.Quiesce(5 * time.Second) {
			t.Fatalf("acceptors=%d: cluster did not quiesce", acceptors)
		}
		tot := c.Met.Total()
		m := tot.Messages
		return m[wire.MsgPrepare] + m[wire.MsgVote] + m[wire.MsgDecision] + m[wire.MsgAck],
			m[wire.MsgVoteForward] + m[wire.MsgPhase2b] + m[wire.MsgPaxosEnd],
			tot.Forces
	}
	singleProto, singleQuorum, singleForces := cost(0)
	replProto, replQuorum, replForces := cost(3)
	if singleQuorum != 0 || replQuorum != 9*txns {
		t.Errorf("quorum-round messages: single %d, replicated %d; want 0 and %d", singleQuorum, replQuorum, 9*txns)
	}
	if replProto != singleProto {
		t.Errorf("replication changed the participants' protocol traffic: %d messages, single %d", replProto, singleProto)
	}
	if replForces != singleForces+5*txns {
		t.Errorf("replicated decision forced %d records, single %d: want +5 per transaction", replForces, singleForces)
	}
}
