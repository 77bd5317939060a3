package core

import (
	"sync"
	"testing"
	"time"

	"prany/internal/wire"
)

// TestDeadlineWheelFires pins the wheel's basic contract: an entry whose
// deadline passes has its expired channel closed, at or after the deadline.
func TestDeadlineWheelFires(t *testing.T) {
	w := newDeadlineWheel()
	defer w.stop()
	start := time.Now()
	e := w.add(start.Add(20 * time.Millisecond))
	select {
	case <-e.expired:
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never fired")
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("fired after %v, before the 20ms deadline", elapsed)
	}
	if n := w.pending(); n != 0 {
		t.Fatalf("%d entries pending after firing", n)
	}
}

// TestDeadlineWheelCancelDoesNotLeak is the satellite's leak regression: a
// commit path that adds and immediately cancels thousands of deadlines
// (votes always arrive before the timeout) must not accumulate stopped
// entries for a whole timeout window — cancel compacts the queue in place.
func TestDeadlineWheelCancelDoesNotLeak(t *testing.T) {
	w := newDeadlineWheel()
	defer w.stop()
	const n = 10000
	deadline := time.Now().Add(time.Hour) // far out: nothing expires by itself
	for i := 0; i < n; i++ {
		w.cancel(w.add(deadline))
	}
	if got := w.pending(); got != 0 {
		t.Fatalf("%d live entries after cancelling all %d", got, n)
	}
	w.mu.Lock()
	queued := len(w.entries) - w.head
	w.mu.Unlock()
	if queued > 64 {
		t.Fatalf("%d canceled entries still queued — cancel-side compaction broken", queued)
	}
}

// TestDeadlineWheelStopExpiresAll pins the crash path: stopping the wheel
// wakes every waiter as if its timeout fired, so no commit goroutine blocks
// on a dead coordinator.
func TestDeadlineWheelStopExpiresAll(t *testing.T) {
	w := newDeadlineWheel()
	at := time.Now().Add(time.Hour)
	entries := []*wheelEntry{w.add(at), w.add(at), w.add(at)}
	w.stop()
	for i, e := range entries {
		select {
		case <-e.expired:
		case <-time.After(5 * time.Second):
			t.Fatalf("entry %d not expired by stop", i)
		}
	}
	// Adding to a stopped wheel comes back already expired.
	select {
	case <-w.add(at).expired:
	default:
		t.Fatal("add on a stopped wheel returned a live entry")
	}
}

// TestDeadlineWheelConcurrent hammers the wheel from many goroutines with
// mixed expiring and canceled deadlines — the -race exercise for the one
// structure every Commit call now goes through. Every expiring entry must
// fire, and after the dust settles nothing may remain pending.
func TestDeadlineWheelConcurrent(t *testing.T) {
	w := newDeadlineWheel()
	defer w.stop()
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				e := w.add(time.Now().Add(time.Millisecond))
				if (g+i)%2 == 0 {
					w.cancel(e)
					continue
				}
				select {
				case <-e.expired:
				case <-time.After(5 * time.Second):
					t.Errorf("g%d entry %d never expired", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := w.pending(); n != 0 {
		t.Fatalf("%d entries pending after drain", n)
	}
}

// TestVoteTimeoutStillFiresThroughWheel drives the real timeout path end to
// end: a participant that never votes must still abort the transaction by
// vote timeout now that the commit path waits on the wheel instead of a
// per-transaction timer — and the fired deadline must not linger.
func TestVoteTimeoutStillFiresThroughWheel(t *testing.T) {
	r := newRig(t, CoordinatorConfig{VoteTimeout: 30 * time.Millisecond},
		partSpec{"p1", wire.PrA}, partSpec{"p2", wire.PrA})
	r.setDrop(func(m wire.Message) bool { return m.Kind == wire.MsgVote && m.From == "p2" })
	txn := r.nextTxn()
	r.exec(txn, "p1", "p2")
	out, err := r.coord.Commit(txn, []wire.SiteID{"p1", "p2"})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if out != wire.Abort {
		t.Fatalf("outcome %s, want abort by vote timeout", out)
	}
	if n := r.coord.wheel.pending(); n != 0 {
		t.Fatalf("%d wheel entries pending after timeout abort", n)
	}
	r.setDrop(nil)
	r.settle()
	r.checkClean()
}
