package core

import (
	"sync"
	"time"
)

// deadlineWheel replaces the per-transaction time.NewTimer allocations of
// the commit path with one goroutine and one reusable timer. Every deadline
// it accepts uses the same duration (the coordinator's vote timeout), so
// arrival order is deadline order and a FIFO slice suffices — no heap, no
// runtime timer churn at thousands of transactions per second.
type deadlineWheel struct {
	mu       sync.Mutex
	entries  []*wheelEntry
	head     int
	canceled int
	wake     chan struct{}
	stopped  bool
	started  bool
}

// wheelEntry is one pending deadline. expired is closed when the deadline
// fires (or the wheel stops); done marks an entry fired or canceled.
type wheelEntry struct {
	at      time.Time
	expired chan struct{}
	done    bool
}

func newDeadlineWheel() *deadlineWheel {
	return &deadlineWheel{wake: make(chan struct{}, 1)}
}

// add registers a deadline at `at`, which must be >= every previously added
// deadline (the coordinator always uses now+VoteTimeout, so this holds). On
// a stopped wheel the entry comes back already expired — the caller's
// subsequent operations fail on the dead site.
func (w *deadlineWheel) add(at time.Time) *wheelEntry {
	e := &wheelEntry{at: at, expired: make(chan struct{})}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		close(e.expired)
		return e
	}
	wasIdle := w.head == len(w.entries)
	w.entries = append(w.entries, e)
	if !w.started {
		w.started = true
		go w.loop()
	}
	w.mu.Unlock()
	if wasIdle {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	return e
}

// cancel withdraws a deadline whose waiter no longer needs it (the votes
// arrived first). Canceled entries are dropped as the wheel reaches them;
// when they pile up faster than deadlines expire, cancel compacts the queue
// in place so stopped timers don't accumulate for a whole timeout window.
func (w *deadlineWheel) cancel(e *wheelEntry) {
	w.mu.Lock()
	if !e.done {
		e.done = true
		w.canceled++
		if w.canceled > 32 && w.canceled > (len(w.entries)-w.head)/2 {
			kept := w.entries[:0]
			for _, x := range w.entries[w.head:] {
				if !x.done {
					kept = append(kept, x)
				}
			}
			for i := len(kept); i < len(w.entries); i++ {
				w.entries[i] = nil
			}
			w.entries = kept
			w.head = 0
			w.canceled = 0
		}
	}
	w.mu.Unlock()
}

// stop expires every pending entry immediately and terminates the wheel
// goroutine. Waiters wake as if their timeout fired; their follow-up work
// fails on the dead site.
func (w *deadlineWheel) stop() {
	w.mu.Lock()
	if !w.stopped {
		w.stopped = true
		for _, e := range w.entries[w.head:] {
			if !e.done {
				e.done = true
				close(e.expired)
			}
		}
		w.entries = nil
		w.head = 0
		w.canceled = 0
	}
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// pending reports the live (un-fired, un-canceled) entry count; leak tests
// assert it drains to zero.
func (w *deadlineWheel) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, e := range w.entries[w.head:] {
		if !e.done {
			n++
		}
	}
	return n
}

// loop services the queue with a single reusable timer: sleep until the
// head deadline, fire it, advance. Canceled heads are skipped without
// sleeping; because deadlines are monotone, a canceled head never delays a
// later entry past its own deadline.
func (w *deadlineWheel) loop() {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		w.mu.Lock()
		for w.head < len(w.entries) && w.entries[w.head].done {
			w.entries[w.head] = nil
			w.head++
		}
		if w.head == len(w.entries) {
			w.entries = w.entries[:0]
			w.head = 0
			w.canceled = 0
			stopped := w.stopped
			w.mu.Unlock()
			if stopped {
				return
			}
			<-w.wake
			continue
		}
		e := w.entries[w.head]
		w.mu.Unlock()
		if d := time.Until(e.at); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-w.wake:
				// New head state (a stop, or entries after an idle period);
				// re-evaluate from the top.
				if !timer.Stop() {
					<-timer.C
				}
				continue
			}
		}
		w.mu.Lock()
		if !e.done {
			e.done = true
			close(e.expired)
		}
		if w.head < len(w.entries) && w.entries[w.head] == e {
			w.entries[w.head] = nil
			w.head++
		}
		w.mu.Unlock()
	}
}
