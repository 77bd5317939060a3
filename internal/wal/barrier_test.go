package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func forcedRec(seq uint64) Record {
	return Record{Kind: KCommit, Role: RoleCoord, Txn: txn(seq)}
}

func mustLoad(t *testing.T, s Store) []Record {
	t.Helper()
	recs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// gatedStore is a MemStore whose Append announces itself on entered and then
// blocks until released, so a test can hold a write in flight for as long as
// it needs instead of sleeping.
type gatedStore struct {
	*MemStore
	entered chan struct{}
	release chan struct{}
}

func newGatedStore() *gatedStore {
	return &gatedStore{MemStore: NewMemStore(), entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (s *gatedStore) Append(recs []Record) error {
	s.entered <- struct{}{}
	<-s.release
	return s.MemStore.Append(recs)
}

// waitLog polls the log's state under its lock until cond holds.
func waitLog(t *testing.T, l *Log, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		ok := cond()
		l.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// waitFollowers blocks until n callers wait for the log's next round.
func waitFollowers(t *testing.T, l *Log, n int) {
	t.Helper()
	waitLog(t, l, "followers to join the next round", func() bool {
		return l.next != nil && len(l.next.lsns) >= n
	})
}

// Concurrent forces against a slow store must coalesce: fewer physical
// writes than force barriers, with every record durable when its caller
// unblocks.
func TestBarrierCoalescesConcurrentForces(t *testing.T) {
	store := NewMemStore()
	store.SetAppendDelay(2 * time.Millisecond)
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			if _, err := log.AppendForce(forcedRec(seq)); err != nil {
				t.Errorf("writer %d: %v", seq, err)
				return
			}
			// The force-write contract: the record is durable now.
			found := false
			for _, r := range mustLoad(t, store) {
				if r.Txn.Seq == seq {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("writer %d: record not durable after AppendForce returned", seq)
			}
		}(uint64(i + 1))
	}
	wg.Wait()

	st := log.Stats()
	if st.Forces != writers {
		t.Fatalf("Forces = %d, want %d", st.Forces, writers)
	}
	if st.Syncs >= st.Forces {
		t.Fatalf("Syncs = %d, Forces = %d: no coalescing happened", st.Syncs, st.Forces)
	}
	if st.Synced != writers {
		t.Fatalf("Synced = %d records, want %d", st.Synced, writers)
	}
	if st.MaxSync < 2 {
		t.Fatalf("MaxSync = %d, want a batch of at least 2", st.MaxSync)
	}
}

// Every LSN a coalesced force returned must be in the file after a reopen —
// the durability contract over a real store, not just the simulator's.
func TestBarrierDurableAcrossFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	lsns := make(chan uint64, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			lsn, err := log.AppendForce(forcedRec(seq))
			if err != nil {
				t.Errorf("writer %d: %v", seq, err)
				return
			}
			lsns <- lsn
		}(uint64(i + 1))
	}
	wg.Wait()
	close(lsns)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	log2, err := Open(store2)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	seen := map[uint64]bool{}
	for _, r := range log2.Records() {
		seen[r.LSN] = true
	}
	n := 0
	for lsn := range lsns {
		n++
		if !seen[lsn] {
			t.Fatalf("LSN %d returned by AppendForce lost across reopen", lsn)
		}
	}
	if n != writers {
		t.Fatalf("%d forces succeeded, want %d", n, writers)
	}
}

// A failed round's error reaches every caller the round covered — leader and
// followers alike — its records stay buffered, and the next successful
// barrier stabilises them.
func TestFailedRoundErrorReachesEveryCallerItCovered(t *testing.T) {
	store := newGatedStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	// Round 1: one leader, held in flight so followers pile up behind it.
	first := make(chan error, 1)
	go func() {
		_, err := log.AppendForce(forcedRec(1))
		first <- err
	}()
	<-store.entered

	const followers = 4
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func(seq uint64) {
			_, err := log.AppendForce(forcedRec(seq))
			errs <- err
		}(uint64(i + 2))
	}
	waitFollowers(t, log, followers)

	// Round 2 — the followers' — fails.
	boom := errors.New("disk on fire")
	store.release <- struct{}{} // round 1 succeeds
	if err := <-first; err != nil {
		t.Fatalf("round 1: %v", err)
	}
	<-store.entered
	store.FailNextAppend = boom
	store.release <- struct{}{}
	for i := 0; i < followers; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("follower got %v, want the round's error", err)
		}
	}
	if got := len(log.Records()); got != 1 {
		t.Fatalf("%d records stable after the failed round, want 1", got)
	}

	// The failed records stayed buffered: the next barrier retries them.
	done := make(chan error, 1)
	go func() { done <- log.Force() }()
	<-store.entered
	store.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("retry force: %v", err)
	}
	if got := len(mustLoad(t, store)); got != 1+followers {
		t.Fatalf("%d records stable after retry, want %d", got, 1+followers)
	}
}

// A crash fails the callers still waiting for a round with ErrLost: their
// records were buffered, never written, and are gone. The write in flight
// completes first and its caller succeeds.
func TestCrashFailsWaitingCallersWithErrLost(t *testing.T) {
	store := newGatedStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	first := make(chan error, 1)
	go func() {
		_, err := log.AppendForce(forcedRec(1))
		first <- err
	}()
	<-store.entered

	const followers = 3
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func(seq uint64) {
			_, err := log.AppendForce(forcedRec(seq))
			errs <- err
		}(uint64(i + 2))
	}
	waitFollowers(t, log, followers)

	crashed := make(chan struct{})
	go func() {
		log.Crash()
		close(crashed)
	}()
	select {
	case <-crashed:
		t.Fatal("Crash did not wait for the write in flight")
	case <-time.After(10 * time.Millisecond):
	}
	store.release <- struct{}{}
	<-crashed
	if err := <-first; err != nil {
		t.Fatalf("write in flight at the crash: %v", err)
	}
	for i := 0; i < followers; i++ {
		if err := <-errs; !errors.Is(err, ErrLost) {
			t.Fatalf("waiting caller got %v, want ErrLost", err)
		}
	}
	if got := len(log.All()); got != 1 {
		t.Fatalf("%d records after crash, want only the one that was in flight", got)
	}
}

// Checkpoint, Crash and Close race forcing writers over a slow store. Run
// under -race: none may touch the buffer or the store while a leader writes.
func TestExclusiveOpsRaceInFlightWrites(t *testing.T) {
	for _, op := range []string{"checkpoint", "crash", "close"} {
		t.Run(op, func(t *testing.T) {
			store := NewMemStore()
			store.SetAppendDelay(200 * time.Microsecond)
			log, err := Open(store)
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()

			// Even writers force one record at a time, odd ones a delivery
			// batch of three through AppendForceAll.
			const writers, per = 4, 25
			var wg sync.WaitGroup
			var mu sync.Mutex
			durable := map[uint64]bool{} // transactions whose force returned nil
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						batch := []Record{forcedRec(uint64(1 + 3*(w*per+i)))}
						var err error
						if w%2 == 0 {
							_, err = log.AppendForce(batch[0])
						} else {
							batch = append(batch, forcedRec(batch[0].Txn.Seq+1), forcedRec(batch[0].Txn.Seq+2))
							err = log.AppendForceAll(batch)
						}
						switch {
						case err == nil:
							mu.Lock()
							for _, r := range batch {
								durable[r.Txn.Seq] = true
							}
							mu.Unlock()
						case errors.Is(err, ErrLost) || errors.Is(err, ErrClosed):
						default:
							t.Errorf("writer %d: %v", w, err)
						}
					}
				}(w)
			}
			for i := 0; i < 10; i++ {
				time.Sleep(300 * time.Microsecond)
				switch op {
				case "checkpoint":
					if _, err := log.Checkpoint(func(Record) bool { return true }, ckptEntries()); err != nil {
						t.Errorf("checkpoint: %v", err)
					}
				case "crash":
					log.Crash()
				case "close":
					if err := log.Close(); err != nil {
						t.Errorf("close: %v", err)
					}
				}
			}
			wg.Wait()

			// A nil force is a promise no exclusive operation may break.
			inStore := map[uint64]bool{}
			for _, r := range mustLoad(t, store) {
				inStore[r.Txn.Seq] = true
			}
			for seq := range durable {
				if !inStore[seq] {
					t.Fatalf("transaction %d was forced successfully but is not in the store", seq)
				}
			}
			if op != "close" {
				for _, r := range log.Records() {
					if !inStore[r.Txn.Seq] {
						t.Fatalf("log believes transaction %d stable, the store does not hold it", r.Txn.Seq)
					}
				}
			}
		})
	}
}

// A record a caller is blocked on is never collected by a concurrent
// checkpoint, even when the liveness predicate calls it dead; a dead record
// nobody waits on is.
func TestCheckpointKeepsRecordsCallersWaitOn(t *testing.T) {
	store := newGatedStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	first := make(chan error, 1)
	go func() {
		_, err := log.AppendForce(forcedRec(1))
		first <- err
	}()
	<-store.entered
	second := make(chan error, 1)
	go func() {
		_, err := log.AppendForce(forcedRec(2))
		second <- err
	}()
	waitFollowers(t, log, 1)
	if _, err := log.Append(forcedRec(3)); err != nil {
		t.Fatal(err)
	}

	ckpt := make(chan error, 1)
	go func() {
		_, err := log.Checkpoint(func(Record) bool { return false }, nil)
		ckpt <- err
	}()
	waitLog(t, log, "the checkpoint to wait out the write in flight", func() bool { return log.holds > 0 })
	store.release <- struct{}{} // round 1 ends; the checkpoint commits before round 2 starts
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	<-store.entered
	store.release <- struct{}{}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	// Record 1 was forced while the checkpoint ran and is carried over
	// unjudged; 2 was awaited; 3 was dead, buffered and nobody's.
	var seqs []uint64
	for _, r := range mustLoad(t, store) {
		seqs = append(seqs, r.Txn.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("store holds transactions %v, want [1 2]", seqs)
	}
	if n := len(log.All()); n != 2 {
		t.Fatalf("log holds %d records, want 2 (the dead lazy record collected)", n)
	}
}

// A delivery batch forced with AppendForceAll while a write is in flight
// joins the next round as one member holding all its records: a checkpoint
// that judges every one of them dead collects none, a crash fails the whole
// batch with ErrLost and a close with ErrClosed.
func TestBatchWaitingForARound(t *testing.T) {
	for _, tc := range []struct {
		op      string
		wantErr error
		stable  []uint64 // transactions in the store afterwards
	}{
		{"checkpoint", nil, []uint64{1, 2, 3, 4}},
		{"crash", ErrLost, []uint64{1}},
		{"close", ErrClosed, []uint64{1}},
	} {
		t.Run(tc.op, func(t *testing.T) {
			store := newGatedStore()
			log, err := Open(store)
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()

			first := make(chan error, 1)
			go func() {
				_, err := log.AppendForce(forcedRec(1))
				first <- err
			}()
			<-store.entered
			batch := make(chan error, 1)
			go func() { batch <- log.AppendForceAll([]Record{forcedRec(2), forcedRec(3), forcedRec(4)}) }()
			waitFollowers(t, log, 1)

			opDone := make(chan error, 1)
			go func() {
				switch tc.op {
				case "checkpoint":
					_, err := log.Checkpoint(func(Record) bool { return false }, nil)
					opDone <- err
				case "crash":
					log.Crash()
					opDone <- nil
				case "close":
					opDone <- log.Close()
				}
			}()
			waitLog(t, log, tc.op+" to wait out the write in flight", func() bool { return log.holds > 0 })
			store.release <- struct{}{}
			if err := <-first; err != nil {
				t.Fatalf("write in flight: %v", err)
			}
			if err := <-opDone; err != nil {
				t.Fatalf("%s: %v", tc.op, err)
			}
			if tc.wantErr == nil {
				<-store.entered // the batch's own round, after the checkpoint committed
				store.release <- struct{}{}
			}
			if err := <-batch; !errors.Is(err, tc.wantErr) {
				t.Fatalf("batch got %v, want %v", err, tc.wantErr)
			}
			var seqs []uint64
			for _, r := range mustLoad(t, store) {
				seqs = append(seqs, r.Txn.Seq)
			}
			if len(seqs) != len(tc.stable) {
				t.Fatalf("store holds transactions %v, want %v", seqs, tc.stable)
			}
			for i := range seqs {
				if seqs[i] != tc.stable[i] {
					t.Fatalf("store holds transactions %v, want %v", seqs, tc.stable)
				}
			}
		})
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 32)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// callerStore records which goroutine made each Append.
type callerStore struct {
	*MemStore
	by []string
}

func (s *callerStore) Append(recs []Record) error {
	s.by = append(s.by, goid())
	return s.MemStore.Append(recs)
}

// An idle log pays nothing for the barrier: Open starts no goroutine, and a
// solo AppendForce is exactly one Store.Append made by the calling goroutine.
func TestSoloForceIsOneAppendOnTheCallersGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	store := &callerStore{MemStore: NewMemStore()}
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	me := goid()
	for i := 1; i <= 3; i++ {
		if _, err := log.AppendForce(forcedRec(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if len(store.by) != i {
			t.Fatalf("%d Store.Append calls after %d solo forces", len(store.by), i)
		}
		if store.by[i-1] != me {
			t.Fatalf("Store.Append ran on goroutine %s, the caller is %s", store.by[i-1], me)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines went %d -> %d across Open and three forces", before, after)
	}
	if st := log.Stats(); st.Syncs != 3 || st.Forces != 3 {
		t.Fatalf("Syncs = %d, Forces = %d, want 3 and 3", st.Syncs, st.Forces)
	}
	// A batch is the same barrier entered once: one more Store.Append, three
	// more forced writes; an empty batch is not a barrier at all.
	if err := log.AppendForceAll([]Record{forcedRec(4), forcedRec(5), forcedRec(6)}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendForceAll(nil); err != nil {
		t.Fatal(err)
	}
	if len(store.by) != 4 || store.by[3] != me {
		t.Fatalf("Store.Append calls by %v after a batch of three, want a fourth by %s", store.by, me)
	}
	if st := log.Stats(); st.Syncs != 4 || st.Forces != 6 || st.MaxSync != 3 {
		t.Fatalf("Syncs = %d, Forces = %d, MaxSync = %d, want 4, 6 and 3", st.Syncs, st.Forces, st.MaxSync)
	}
}

// The OnSync observer must see every physical write with its record count.
func TestOnSyncObserverCountsWrites(t *testing.T) {
	log, err := Open(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	syncs, records := 0, 0
	log.OnSync(func(n int) {
		syncs++
		records += n
	})
	for i := 0; i < 3; i++ {
		if _, err := log.AppendForce(forcedRec(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if syncs != 3 || records != 3 {
		t.Fatalf("observer saw %d writes / %d records, want 3 / 3", syncs, records)
	}
	if got := log.Stats().Syncs; got != 3 {
		t.Fatalf("Stats().Syncs = %d, want 3", got)
	}
}
