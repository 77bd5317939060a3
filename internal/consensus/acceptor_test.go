package consensus

import (
	"strings"
	"testing"

	"prany/internal/wal"
	"prany/internal/wire"
)

func testAcceptor(t *testing.T, id wire.SiteID) (*Acceptor, *collector) {
	t.Helper()
	env, sink := testEnv(t, id)
	return NewAcceptor(env, testAcceptorSet), sink
}

func voteForward(txn wire.TxnID) wire.Message {
	return wire.Message{
		Kind: wire.MsgVoteForward, Txn: txn, From: "coord", To: "a1", Ballot: 0,
		Insts: []wire.InstanceVote{
			{Part: "p1", Vote: wire.VoteYes}, {Part: "p2", Vote: wire.VoteYes},
		},
		Roster: []wire.RosterEntry{{ID: "p1", Proto: wire.PrN}, {ID: "p2", Proto: wire.PrC}},
	}
}

func TestAcceptorAcceptAndPromiseBallotConflicts(t *testing.T) {
	env, sink := testEnv(t, "a1")
	a := NewAcceptor(env, testAcceptorSet)
	txn := wire.TxnID{Coord: "coord", Seq: 1}

	a.Handle(voteForward(txn))
	msgs := sink.take()
	if len(msgs) != 1 || msgs[0].Kind != wire.MsgPhase2b || msgs[0].Ballot != 0 {
		t.Fatalf("vote-forward reply: %v", msgs)
	}

	// A takeover leader promises a higher ballot...
	a.Handle(wire.Message{Kind: wire.MsgPhase1a, Txn: txn, From: "a2", Ballot: 259})
	msgs = sink.take()
	if len(msgs) != 1 || msgs[0].Kind != wire.MsgPhase1b || msgs[0].Ballot != 259 {
		t.Fatalf("Phase1b reply: %v", msgs)
	}
	if len(msgs[0].Insts) != 2 {
		t.Fatalf("Phase1b must report the ballot-0 accepts, got %v", msgs[0].Insts)
	}

	// ...after which the stale ballot-0 accept and a lower prepare are both
	// ignored.
	a.Handle(voteForward(txn))
	a.Handle(wire.Message{Kind: wire.MsgPhase1a, Txn: txn, From: "a3", Ballot: 100})
	if msgs := sink.take(); len(msgs) != 0 {
		t.Fatalf("superseded rounds answered: %v", msgs)
	}

	// The same leader re-sending its prepare (a lost Phase1b) draws an
	// idempotent re-promise — no new force, the promise is already durable —
	// instead of stalling the round until a full re-ballot.
	before := len(env.Log.All())
	a.Handle(wire.Message{Kind: wire.MsgPhase1a, Txn: txn, From: "a2", Ballot: 259})
	msgs = sink.take()
	if len(msgs) != 1 || msgs[0].Kind != wire.MsgPhase1b || msgs[0].Ballot != 259 || len(msgs[0].Insts) != 2 {
		t.Fatalf("re-promise reply: %v", msgs)
	}
	if got := len(env.Log.All()); got != before {
		t.Fatalf("re-promise appended records: %d -> %d", before, got)
	}

	// The higher-ballot leader's Phase2a is accepted.
	a.Handle(wire.Message{
		Kind: wire.MsgPhase2a, Txn: txn, From: "a2", Ballot: 259,
		Insts: []wire.InstanceVote{{Part: "p1", Vote: wire.VoteNo}, {Part: "p2", Vote: wire.VoteYes}},
	})
	msgs = sink.take()
	if len(msgs) != 1 || msgs[0].Kind != wire.MsgPhase2b || msgs[0].Ballot != 259 {
		t.Fatalf("Phase2b reply: %v", msgs)
	}
}

func TestAcceptorDecidedAnswersEverything(t *testing.T) {
	a, sink := testAcceptor(t, "a1")
	txn := wire.TxnID{Coord: "coord", Seq: 2}
	a.Handle(voteForward(txn))
	sink.take()
	a.Handle(wire.Message{Kind: wire.MsgPaxosEnd, Txn: txn, From: "coord", Outcome: wire.Commit})
	sink.take()

	if out, ok := a.Outcome(txn); !ok || out != wire.Commit {
		t.Fatalf("tombstone outcome = (%v,%v)", out, ok)
	}
	// Every phase message now draws a Decided tombstone reply; an inquiry
	// draws the decision itself.
	a.Handle(voteForward(txn))
	a.Handle(wire.Message{Kind: wire.MsgPhase1a, Txn: txn, From: "a2", Ballot: 999})
	a.Handle(wire.Message{Kind: wire.MsgInquiry, Txn: txn, From: "p1", Proto: wire.PrN})
	msgs := sink.take()
	if len(msgs) != 3 {
		t.Fatalf("want 3 answers, got %v", msgs)
	}
	for _, m := range msgs[:2] {
		if !m.Decided || m.Outcome != wire.Commit {
			t.Fatalf("phase answer not a commit tombstone: %+v", m)
		}
	}
	if msgs[2].Kind != wire.MsgDecision || msgs[2].Outcome != wire.Commit {
		t.Fatalf("inquiry answer: %+v", msgs[2])
	}
	if !a.Quiesced() {
		t.Fatal("decided-only acceptor not quiesced")
	}
}

func TestAcceptorInquiryRunsTakeover(t *testing.T) {
	a1, sink1 := testAcceptor(t, "a1")
	txn := wire.TxnID{Coord: "coord", Seq: 3}
	a1.Handle(voteForward(txn))
	sink1.take()

	// A blocked participant inquires: a1 opens a takeover at its slot.
	a1.Handle(wire.Message{Kind: wire.MsgInquiry, Txn: txn, From: "p1", Proto: wire.PrN})
	msgs := sink1.take()
	if len(msgs) != 2 || msgs[0].Kind != wire.MsgPhase1a || msgs[0].Ballot != 257 {
		t.Fatalf("takeover prepare: %v", msgs)
	}
	// One peer's promise completes the quorum (self counts); it reports the
	// same ballot-0 accepts, so the takeover re-proposes and commits.
	a1.Handle(wire.Message{
		Kind: wire.MsgPhase1b, Txn: txn, From: "a2", Ballot: 257,
		Insts: []wire.InstanceVote{
			{Part: "p1", Vote: wire.VoteYes, Bal: 0}, {Part: "p2", Vote: wire.VoteYes, Bal: 0},
		},
	})
	msgs = sink1.take()
	var phase2 int
	for _, m := range msgs {
		if m.Kind == wire.MsgPhase2a {
			phase2++
		}
	}
	if phase2 != 2 {
		t.Fatalf("want Phase2a to both peers, got %v", msgs)
	}
	a1.Handle(phase2b(txn, "a2", 257))
	msgs = sink1.take()
	// Quorum of accepts (self + a2): decision fixed, inquirer answered,
	// peers released.
	var decision, end int
	for _, m := range msgs {
		switch m.Kind {
		case wire.MsgDecision:
			decision++
			if m.To != "p1" || m.Outcome != wire.Commit {
				t.Fatalf("wrong decision: %+v", m)
			}
		case wire.MsgPaxosEnd:
			end++
		}
	}
	if decision != 1 || end != 2 {
		t.Fatalf("takeover completion sent %v", msgs)
	}
	if out, ok := a1.Outcome(txn); !ok || out != wire.Commit {
		t.Fatalf("takeover outcome = (%v,%v)", out, ok)
	}
}

func TestAcceptorUnknownTxnTakeoverAborts(t *testing.T) {
	a1, sink := testAcceptor(t, "a1")
	txn := wire.TxnID{Coord: "coord", Seq: 4}
	// Nobody ever saw this transaction: the takeover finds only free
	// instances and fixes abort — safe, because a decision would have left
	// accepted values (or a tombstone) on every quorum. The roster is
	// unknown too, so the inquirer's instance stands in as the value the
	// abort is anchored on.
	a1.Handle(wire.Message{Kind: wire.MsgInquiry, Txn: txn, From: "p2", Proto: wire.PrC})
	sink.take()
	a1.Handle(wire.Message{Kind: wire.MsgPhase1b, Txn: txn, From: "a3", Ballot: 257})
	var phase2 int
	for _, m := range sink.take() {
		if m.Kind != wire.MsgPhase2a {
			continue
		}
		phase2++
		if len(m.Insts) != 1 || m.Insts[0].Part != "p2" || m.Insts[0].Vote != wire.VoteNo || !m.Insts[0].Free {
			t.Fatalf("abort not anchored on an explicit free VoteNo: %+v", m.Insts)
		}
	}
	if phase2 != 2 {
		t.Fatalf("want Phase2a to both peers, got %d", phase2)
	}
	a1.Handle(phase2b(txn, "a3", 257))
	var decided *wire.Message
	for _, m := range sink.take() {
		if m.Kind == wire.MsgDecision {
			m := m
			decided = &m
		}
	}
	if decided == nil || decided.Outcome != wire.Abort || decided.To != "p2" {
		t.Fatalf("unknown-txn takeover: %+v", decided)
	}
}

func TestAcceptorTakeoverStallsReballot(t *testing.T) {
	a1, sink := testAcceptor(t, "a1")
	txn := wire.TxnID{Coord: "coord", Seq: 5}
	a1.Handle(wire.Message{Kind: wire.MsgInquiry, Txn: txn, From: "p1", Proto: wire.PrN})
	sink.take()
	for i := 0; i < 4; i++ {
		a1.Tick()
	}
	if ds := a1.DebugState(); !strings.Contains(ds, "bal=513") {
		t.Fatalf("stalled takeover did not re-ballot to attempt 2: %s", ds)
	}
	if a1.Pending() != 1 {
		t.Fatalf("pending = %d", a1.Pending())
	}
}

func TestAcceptorRecoverReplaysAndSyncs(t *testing.T) {
	env, sink := testEnv(t, "a1")
	a := NewAcceptor(env, testAcceptorSet)
	txn := wire.TxnID{Coord: "coord", Seq: 6}
	txn2 := wire.TxnID{Coord: "coord", Seq: 7}
	a.Handle(voteForward(txn))
	a.Handle(voteForward(txn2))
	a.Handle(wire.Message{Kind: wire.MsgPaxosEnd, Txn: txn2, From: "coord", Outcome: wire.Commit})
	sink.take()

	// Reboot on the same log: accepted values and the tombstone replay.
	reborn := NewAcceptor(env, testAcceptorSet)
	if err := reborn.Recover(); err != nil {
		t.Fatal(err)
	}
	if k := sink.kinds(); k[wire.MsgSyncRequest] != 2 {
		t.Fatalf("recovery must sync from both peers, got %v", k)
	}
	sink.take()
	if out, ok := reborn.Outcome(txn2); !ok || out != wire.Commit {
		t.Fatalf("tombstone lost in replay: (%v,%v)", out, ok)
	}
	if reborn.Pending() != 1 {
		t.Fatalf("undecided accept lost in replay: pending=%d", reborn.Pending())
	}
	// The replayed accept still answers a takeover prepare with its values.
	reborn.Handle(wire.Message{Kind: wire.MsgPhase1a, Txn: txn, From: "a2", Ballot: 259})
	msgs := sink.take()
	if len(msgs) != 1 || len(msgs[0].Insts) != 2 {
		t.Fatalf("replayed accepts not reported: %v", msgs)
	}

	// A peer's sync request is answered per known transaction, from the
	// same image a checkpoint retains.
	reborn.Handle(wire.Message{Kind: wire.MsgSyncRequest, From: "a3"})
	msgs = sink.take()
	if len(msgs) != 2 || msgs[0].Kind != wire.MsgSyncState || msgs[1].Kind != wire.MsgSyncState {
		t.Fatalf("sync answers: %v", msgs)
	}

	// A cold acceptor merges the sync state: tombstones and accepts both.
	cold, coldSink := testAcceptor(t, "a2")
	for _, m := range msgs {
		m.To = "a2"
		cold.Handle(m)
	}
	coldSink.take()
	if out, ok := cold.Outcome(txn2); !ok || out != wire.Commit {
		t.Fatalf("sync did not transfer tombstone: (%v,%v)", out, ok)
	}
	if cold.Pending() != 1 {
		t.Fatalf("sync did not transfer accepts: pending=%d", cold.Pending())
	}
}

func TestAcceptorLiveRecordAndCheckpointEntries(t *testing.T) {
	a, sink := testAcceptor(t, "a1")
	open := wire.TxnID{Coord: "coord", Seq: 8}
	done := wire.TxnID{Coord: "coord", Seq: 9}
	a.Handle(voteForward(open))
	a.Handle(voteForward(done))
	a.Handle(wire.Message{Kind: wire.MsgPaxosEnd, Txn: done, From: "coord", Outcome: wire.Abort})
	sink.take()

	if !a.LiveRecord(wal.Record{Kind: wal.KPaxosAccept, Role: wal.RoleAcceptor, Txn: open}) {
		t.Fatal("undecided accept must stay live")
	}
	if a.LiveRecord(wal.Record{Kind: wal.KPaxosAccept, Role: wal.RoleAcceptor, Txn: done}) {
		t.Fatal("decided accept must be collectable")
	}
	if !a.LiveRecord(wal.Record{Kind: wal.KAbort, Role: wal.RoleAcceptor, Txn: done}) {
		t.Fatal("tombstone must stay live forever")
	}
	if a.LiveRecord(wal.Record{Kind: wal.KCommit, Role: wal.RoleAcceptor, Txn: wire.TxnID{Coord: "x", Seq: 1}}) {
		t.Fatal("unknown transaction must be collectable")
	}

	entries := a.CheckpointEntries()
	if len(entries) != 2 {
		t.Fatalf("want 2 entries, got %v", entries)
	}
	for _, e := range entries {
		if e.Role != wal.RoleAcceptor {
			t.Fatalf("entry role: %+v", e)
		}
		if e.Txn == done && (!e.Decided || e.Outcome != wire.Abort) {
			t.Fatalf("decided entry: %+v", e)
		}
	}
}

// TestTakeoverAnchorsAbortAgainstStaleBallot0Accept is the split-decision
// regression: only a3 holds the coordinator's ballot-0 yes accepts (the one
// vote-forward that got out before the crash). a1's takeover — promise
// quorum {a1,a2}, neither of which saw them — must fix its abort as an
// explicit quorum-accepted VoteNo, so that a2's later takeover, whose
// promise quorum {a2,a3} includes the stale yes@0, chooses the anchored
// abort instead of deciding commit against a1's announced abort.
func TestTakeoverAnchorsAbortAgainstStaleBallot0Accept(t *testing.T) {
	txn := wire.TxnID{Coord: "coord", Seq: 10}
	a1, sink1 := testAcceptor(t, "a1")
	a2, sink2 := testAcceptor(t, "a2")
	a3, sink3 := testAcceptor(t, "a3")

	vf := voteForward(txn)
	vf.To = "a3"
	a3.Handle(vf)
	sink3.take()

	// Leader 1: a1 takes over for blocked p1 at ballot 257.
	a1.Handle(wire.Message{Kind: wire.MsgInquiry, Txn: txn, From: "p1", Proto: wire.PrN})
	sink1.take()
	a2.Handle(wire.Message{Kind: wire.MsgPhase1a, Txn: txn, From: "a1", To: "a2", Ballot: 257})
	p1bs := sink2.take()
	if len(p1bs) != 1 || p1bs[0].Kind != wire.MsgPhase1b {
		t.Fatalf("a2 promise reply: %v", p1bs)
	}
	a1.Handle(p1bs[0])
	var p2aToA2 *wire.Message
	for _, m := range sink1.take() {
		if m.Kind == wire.MsgPhase2a && m.To == "a2" {
			m := m
			p2aToA2 = &m
		}
	}
	if p2aToA2 == nil || len(p2aToA2.Insts) != 1 || p2aToA2.Insts[0].Vote != wire.VoteNo || !p2aToA2.Insts[0].Free {
		t.Fatalf("leader 1 did not propose an explicit free VoteNo: %+v", p2aToA2)
	}
	a2.Handle(*p2aToA2)
	p2bs := sink2.take()
	if len(p2bs) != 1 || p2bs[0].Kind != wire.MsgPhase2b {
		t.Fatalf("a2 accept reply: %v", p2bs)
	}
	a1.Handle(p2bs[0])
	if out, ok := a1.Outcome(txn); !ok || out != wire.Abort {
		t.Fatalf("leader 1 decided (%v,%v), want abort", out, ok)
	}
	sink1.take() // drop the decision and PaxosEnd announcements: they never arrive

	// Leader 2: a2 takes over for blocked p2 at ballot 258, promise quorum
	// {a2,a3}. a3 reports the stale yes@0 pair (and the roster); a2 itself
	// holds leader 1's anchored no@257, which must win in chooseValues.
	a2.Handle(wire.Message{Kind: wire.MsgInquiry, Txn: txn, From: "p2", Proto: wire.PrC})
	sink2.take()
	a3.Handle(wire.Message{Kind: wire.MsgPhase1a, Txn: txn, From: "a2", To: "a3", Ballot: 258})
	p1bs = sink3.take()
	if len(p1bs) != 1 || len(p1bs[0].Insts) != 2 {
		t.Fatalf("a3 must report its stale ballot-0 accepts: %v", p1bs)
	}
	a2.Handle(p1bs[0])
	for _, m := range sink2.take() {
		if m.Kind == wire.MsgPhase2a && m.To == "a3" {
			a3.Handle(m)
		}
	}
	for _, m := range sink3.take() {
		if m.Kind == wire.MsgPhase2b {
			a2.Handle(m)
		}
	}
	out, ok := a2.Outcome(txn)
	if !ok {
		t.Fatal("leader 2 never decided")
	}
	if out != wire.Abort {
		t.Fatalf("split decision: leader 2 decided %s against leader 1's announced abort", out)
	}
}

// TestAcceptorRecoverKeepsPerInstanceBallots pins the WAL round-trip of
// mixed-ballot accepts: a snapshot record written by a higher-ballot accept
// must not inflate untouched instances onto its own ballot, or a recovered
// acceptor's Phase1b would let stale values beat genuinely chosen ones at a
// later leader.
func TestAcceptorRecoverKeepsPerInstanceBallots(t *testing.T) {
	env, sink := testEnv(t, "a1")
	a := NewAcceptor(env, testAcceptorSet)
	txn := wire.TxnID{Coord: "coord", Seq: 11}
	a.Handle(voteForward(txn))
	// A takeover's Phase2a at ballot 259 touches only p1; p2 stays at yes@0.
	a.Handle(wire.Message{
		Kind: wire.MsgPhase2a, Txn: txn, From: "a3", Ballot: 259,
		Insts: []wire.InstanceVote{{Part: "p1", Vote: wire.VoteNo}},
	})
	sink.take()

	reborn := NewAcceptor(env, testAcceptorSet)
	if err := reborn.Recover(); err != nil {
		t.Fatal(err)
	}
	sink.take()
	reborn.Handle(wire.Message{Kind: wire.MsgPhase1a, Txn: txn, From: "a2", Ballot: 514})
	msgs := sink.take()
	if len(msgs) != 1 || msgs[0].Kind != wire.MsgPhase1b || len(msgs[0].Insts) != 2 {
		t.Fatalf("recovered Phase1b: %v", msgs)
	}
	want := map[wire.SiteID]wire.InstanceVote{
		"p1": {Part: "p1", Vote: wire.VoteNo, Bal: 259},
		"p2": {Part: "p2", Vote: wire.VoteYes, Bal: 0},
	}
	for _, iv := range msgs[0].Insts {
		if w := want[iv.Part]; iv != w {
			t.Errorf("replayed instance %s = %+v, want %+v", iv.Part, iv, w)
		}
	}
}

// Tick runs on a timer for as long as the site is up, and tombstones are
// never forgotten: what a Tick costs and does must depend on the undecided
// transactions only.
func TestAcceptorTickLooksAtOpenTransactionsOnly(t *testing.T) {
	a, sink := testAcceptor(t, "a1")
	end := func(txn wire.TxnID) {
		a.Handle(wire.Message{Kind: wire.MsgPaxosEnd, Txn: txn, From: "coord", Outcome: wire.Commit})
	}
	for seq := uint64(1); seq <= 2000; seq++ {
		txn := wire.TxnID{Coord: "coord", Seq: seq}
		a.Handle(voteForward(txn))
		end(txn)
	}
	sink.take()
	if !a.Quiesced() || a.Pending() != 0 || len(a.DecidedTxns()) != 2000 {
		t.Fatalf("quiesced=%v pending=%d decided=%d", a.Quiesced(), a.Pending(), len(a.DecidedTxns()))
	}
	if n := testing.AllocsPerRun(10, a.Tick); n > 4 {
		t.Fatalf("a Tick over 2000 tombstones and nothing open allocates %.0f times", n)
	}
	if msgs := sink.take(); len(msgs) != 0 {
		t.Fatalf("a Tick with nothing open sent %v", msgs)
	}

	// Under load every Tick finds some transaction in flight, each time
	// another one: none is stuck, so no peer is asked for its whole image.
	for seq := uint64(3001); seq <= 3006; seq++ {
		txn := wire.TxnID{Coord: "coord", Seq: seq}
		a.Handle(voteForward(txn))
		a.Tick()
		end(txn)
	}
	if k := sink.kinds(); k[wire.MsgSyncRequest] != 0 {
		t.Fatalf("transactions in flight taken for stuck ones: %v", k)
	}
	sink.take()

	// One that two Ticks in a row find undecided with nothing driving it is
	// stuck: both peers are asked, and again two Ticks later.
	stuck := wire.TxnID{Coord: "coord", Seq: 4000}
	a.Handle(voteForward(stuck))
	sink.take()
	for i, want := range []int{0, 2, 0, 2} {
		a.Tick()
		if k := sink.kinds(); k[wire.MsgSyncRequest] != want {
			t.Fatalf("tick %d over a stuck transaction: %v, want %d sync requests", i+1, k, want)
		}
		sink.take()
	}

	// Recovery rebuilds the same split from the log.
	reborn := NewAcceptor(a.env, testAcceptorSet)
	if err := reborn.Recover(); err != nil {
		t.Fatal(err)
	}
	if reborn.Pending() != 1 || len(reborn.DecidedTxns()) != 2006 {
		t.Fatalf("after recovery: pending=%d decided=%d", reborn.Pending(), len(reborn.DecidedTxns()))
	}
}
