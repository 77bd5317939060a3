package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"prany/internal/history"
	"prany/internal/wal"
	"prany/internal/wire"
)

// TestSingleDeciderContract pins the SingleDecider half of the Decider
// seam: synchronous fix, forced commit record, the failed-force abort
// supersession, presume-abort recovery, and the empty DebugState that keeps
// pre-interface state hashes unchanged.
func TestSingleDeciderContract(t *testing.T) {
	store := wal.NewMemStore()
	log, err := wal.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	var sent []wire.Message
	env := Env{
		ID:   "coord",
		Log:  log,
		Send: func(m wire.Message) { sent = append(sent, m) },
		Dead: &atomic.Bool{},
	}
	d := NewSingleDecider(env)
	if d.Replicated() {
		t.Fatal("SingleDecider must not report replicated")
	}
	txn := wire.TxnID{Coord: "coord", Seq: 1}
	out, done, err := d.Decide(DecideRequest{
		Txn: txn, Chosen: wire.PrA, Outcome: wire.Commit,
	}, nil)
	if err != nil || !done || out != wire.Commit {
		t.Fatalf("commit decide: out=%s done=%v err=%v", out, done, err)
	}
	recs := log.Records()
	if len(recs) != 1 || recs[0].Kind != wal.KCommit || recs[0].Role != wal.RoleCoord {
		t.Fatalf("want one forced coordinator commit record, got %v", recs)
	}

	// A presuming variant's abort fixes without any record; a logging
	// variant's abort forces one.
	out, done, err = d.Decide(DecideRequest{
		Txn: wire.TxnID{Coord: "coord", Seq: 2}, Chosen: wire.PrA, Outcome: wire.Abort,
	}, nil)
	if err != nil || !done || out != wire.Abort || len(log.Records()) != 1 {
		t.Fatalf("presumed abort decide: out=%s done=%v err=%v recs=%d", out, done, err, len(log.Records()))
	}
	out, done, err = d.Decide(DecideRequest{
		Txn: wire.TxnID{Coord: "coord", Seq: 3}, Chosen: wire.PrN, Outcome: wire.Abort,
	}, nil)
	if err != nil || !done || out != wire.Abort {
		t.Fatalf("logged abort decide: out=%s done=%v err=%v", out, done, err)
	}
	if recs := log.Records(); len(recs) != 2 || recs[1].Kind != wal.KAbort {
		t.Fatalf("want a forced abort record for a logging variant, got %v", recs)
	}

	// The no-op half of the interface.
	d.HandlePhase(wire.Message{Kind: wire.MsgPhase2b})
	d.Finished(txn, wire.Commit)
	d.Tick()
	if s := d.DebugState(); s != "" {
		t.Fatalf("SingleDecider DebugState must be empty, got %q", s)
	}
	if out, done := d.RecoverUndecided(txn, nil, nil); out != wire.Abort || !done {
		t.Fatalf("recovery must presume abort synchronously, got %s done=%v", out, done)
	}

	// A failed force turns a commit decision into a superseding lazy abort
	// with the error surfaced; closing the log makes every write fail.
	log.Close()
	out, done, err = d.Decide(DecideRequest{
		Txn: wire.TxnID{Coord: "coord", Seq: 4}, Chosen: wire.PrA, Outcome: wire.Commit,
	}, nil)
	if err == nil || !done || out != wire.Abort {
		t.Fatalf("failed force must abort with the error surfaced: out=%s done=%v err=%v", out, done, err)
	}
	if len(sent) != 0 {
		t.Fatalf("the decider itself must never send, got %v", sent)
	}
}

// TestEnvDeciderHooks covers the exported Env wrappers internal/consensus
// builds on: record forcing and lazy appends, accounted sends, history
// events, deterministic fan-out ordering, and the serial-scheduler probe.
func TestEnvDeciderHooks(t *testing.T) {
	log, err := wal.Open(wal.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	hist := history.NewRecorder()
	var sent []wire.Message
	env := Env{
		ID:   "a1",
		Log:  log,
		Send: func(m wire.Message) { sent = append(sent, m) },
		Hist: hist,
		Dead: &atomic.Bool{},
	}
	txn := wire.TxnID{Coord: "coord", Seq: 1}
	// The acceptor's funnel: the record is stable before the reply leaves.
	env.ForceThenSend(nil, txn,
		[]wal.Record{{Kind: wal.KPaxosAccept, Role: wal.RoleAcceptor, Txn: txn}},
		[]wire.Message{{Kind: wire.MsgPhase2b, Txn: txn, From: "a1", To: "coord"}})
	if len(log.Records()) != 1 || len(sent) != 1 {
		t.Fatalf("want 1 stable record and 1 reply, got %d and %v", len(log.Records()), sent)
	}
	if err := env.AppendRecord(wal.Record{Kind: wal.KEnd, Role: wal.RoleAcceptor, Txn: txn}); err != nil {
		t.Fatal(err)
	}
	// The forced record is stable; the lazy append sits in the buffer.
	if stable, all := len(log.Records()), len(log.All()); stable != 1 || all != 2 {
		t.Fatalf("want 1 stable + 1 buffered record, got stable=%d all=%d", stable, all)
	}
	env.SendMsg(wire.Message{Kind: wire.MsgPhase2b, Txn: txn, From: "a1", To: "coord"})
	env.FanoutMsgs([]wire.Message{
		{Kind: wire.MsgPaxosEnd, Txn: txn, From: "a1", To: "a3"},
		{Kind: wire.MsgPaxosEnd, Txn: txn, From: "a1", To: "a2"},
	})
	sent = sent[1:] // the funnel's reply, checked above
	if len(sent) != 3 || sent[1].To != "a2" || sent[2].To != "a3" {
		t.Fatalf("fan-out must sort by destination: %v", sent)
	}
	env.RecordEvent(history.Event{Kind: history.EvDecide, Txn: txn, Outcome: wire.Commit})
	found := false
	for _, ev := range hist.Events() {
		if ev.Kind == history.EvDecide && ev.Site == "a1" {
			found = true
		}
	}
	if !found {
		t.Fatal("RecordEvent must stamp the site and reach the recorder")
	}
	if env.SerialSched() {
		t.Fatal("no scheduler attached, SerialSched must be false")
	}

	// Fail-stop discipline: a dead site neither logs nor sends nor records.
	env.Dead.Store(true)
	env.ForceThenSend(nil, txn,
		[]wal.Record{{Kind: wal.KPaxosAccept, Role: wal.RoleAcceptor, Txn: txn}},
		[]wire.Message{{Kind: wire.MsgPhase2b, Txn: txn, From: "a1", To: "coord"}})
	if n := len(log.All()); n != 2 {
		t.Fatalf("a dead site must refuse to force, log holds %d records", n)
	}
	env.SendMsg(wire.Message{Kind: wire.MsgPhase2b, Txn: txn, From: "a1", To: "coord"})
	if len(sent) != 3 {
		t.Fatalf("a dead site must not send, got %v", sent)
	}
}

// TestBeginResolveVoteStatus drives the voting phase through the
// deterministic-driver API (Begin + VoteStatus + Resolve) instead of Commit,
// and reads the introspection the model checker depends on: Knows,
// PTEntries, CheckpointEntries and the decider accessor.
func TestBeginResolveVoteStatus(t *testing.T) {
	r := newRig(t, CoordinatorConfig{}, partSpec{"pa", wire.PrA}, partSpec{"pc", wire.PrC})
	if _, ok := r.coord.Decider().(*SingleDecider); !ok {
		t.Fatalf("default decider must be SingleDecider, got %T", r.coord.Decider())
	}
	txn := r.nextTxn()
	r.exec(txn, "pa", "pc")
	if err := r.coord.Begin(txn, []wire.SiteID{"pa", "pc"}); err != nil {
		t.Fatal(err)
	}
	// The rig routes synchronously: both yes votes are already in.
	open, done := r.coord.VoteStatus(txn)
	if !open || !done {
		t.Fatalf("after synchronous votes want open=true done=true, got open=%v done=%v", open, done)
	}
	if !r.coord.Knows(txn) {
		t.Fatal("coordinator must know an in-flight transaction")
	}
	if n := len(r.coord.PTEntries()); n != 1 {
		t.Fatalf("want 1 protocol-table entry, got %d", n)
	}
	if n := len(r.coord.CheckpointEntries()); n != 1 {
		t.Fatalf("want 1 checkpoint entry, got %d", n)
	}
	if dump := r.coord.PTDump(); len(dump) != 1 || dump[0].Txn != txn {
		t.Fatalf("PTDump: %+v", dump)
	}
	out, err := r.coord.Resolve(txn)
	if err != nil || out != wire.Commit {
		t.Fatalf("Resolve: %s, %v", out, err)
	}
	// The rig acks synchronously, so the entry is already retired (PrA
	// forgets on the last ack); a retired or unknown txn errors.
	if _, err := r.coord.Resolve(txn); err == nil ||
		!strings.Contains(err.Error(), "not in protocol table") {
		t.Fatalf("retired-txn Resolve error: %v", err)
	}
	if _, err := r.coord.Resolve(wire.TxnID{Coord: "coord", Seq: 999}); err == nil ||
		!strings.Contains(err.Error(), "not in protocol table") {
		t.Fatalf("unknown-txn Resolve error: %v", err)
	}
	if open, _ := r.coord.VoteStatus(wire.TxnID{Coord: "coord", Seq: 999}); open {
		t.Fatal("unknown transaction must not report an open vote")
	}
	r.settle()
	r.checkClean()
}
