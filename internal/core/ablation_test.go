package core

import (
	"testing"
	"time"

	"prany/internal/wire"
)

// TestAblationDynamicPresumptionIsSafe is the live control for the
// fixed-answer column of TestDefinition2Enumeration: on the schedule where
// a fixed abort answer re-creates the Theorem 1 violation, the dynamic
// per-inquirer presumption stays clean.
func TestAblationDynamicPresumptionIsSafe(t *testing.T) {
	r := newRig(t, CoordinatorConfig{}, partSpec{"pa", wire.PrA}, partSpec{"pc", wire.PrC})
	txn := r.nextTxn()
	r.exec(txn, "pa", "pc")
	r.drop = func(m wire.Message) bool { return m.Kind == wire.MsgDecision && m.To == "pc" }
	if out, _ := r.coord.Commit(txn, []wire.SiteID{"pa", "pc"}); out != wire.Commit {
		t.Fatal("expected commit")
	}
	r.drop = nil
	r.crashPart("pc")
	r.recoverPart("pc", wire.PrC)
	r.checkClean()
}

// TestTickIdleAbort covers the unilateral abort of stranded executing
// subtransactions: an exec with no subsequent prepare is abandoned after
// idleAbortTicks rounds, releasing its locks.
func TestTickIdleAbort(t *testing.T) {
	r := newRig(t, CoordinatorConfig{}, partSpec{"p1", wire.PrA})
	txn := r.nextTxn()
	r.exec(txn, "p1")
	if r.parts["p1"].Pending() != 1 {
		t.Fatal("exec state missing")
	}
	for i := 0; i < idleAbortTicks; i++ {
		r.parts["p1"].Tick()
	}
	if r.parts["p1"].Pending() != 0 {
		t.Fatal("idle executing txn not abandoned")
	}
	if r.stores["p1"].PendingCount() != 0 {
		t.Fatal("RM state not released")
	}
	// A prepare arriving after the unilateral abort is answered with a no
	// vote; the global transaction aborts.
	out, _ := r.coord.Commit(txn, []wire.SiteID{"p1"})
	if out != wire.Abort {
		t.Fatalf("outcome %v", out)
	}
	r.checkClean()
}

// TestTickDoesNotKillActiveExec verifies the idle counter resets... it does
// not reset (by design: ticks are spaced by the site's retry interval, far
// apart relative to execution), but a *prepared* transaction must never be
// abandoned no matter how many ticks pass.
func TestTickNeverAbandonsPrepared(t *testing.T) {
	r := newRig(t, CoordinatorConfig{}, partSpec{"p1", wire.PrN})
	txn := r.nextTxn()
	r.exec(txn, "p1")
	// Prepare p1 but drop its vote so it stays prepared with the
	// transaction unresolved; drop inquiries too.
	r.drop = func(m wire.Message) bool {
		return m.Kind == wire.MsgVote || m.Kind == wire.MsgInquiry || m.Kind == wire.MsgDecision
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.coord.Commit(txn, []wire.SiteID{"p1"})
	}()
	waitUntil(t, func() bool { return len(r.parts["p1"].InDoubt()) == 1 })
	for i := 0; i < 3*idleAbortTicks; i++ {
		r.parts["p1"].Tick()
	}
	if len(r.parts["p1"].InDoubt()) != 1 {
		t.Fatal("prepared transaction was abandoned by ticks")
	}
	<-done // the commit call aborted on vote timeout
	r.drop = nil
	r.settle()
}

// waitUntil polls cond with a short sleep up to a generous deadline.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never reached")
}
