package wal

import (
	"errors"
	"sync"
	"testing"

	"prany/internal/wire"
)

func ckptEntries() []CheckpointEntry {
	return []CheckpointEntry{
		{Txn: txn(7), Role: RoleCoord, Phase: CkptDraining, Decided: true, Outcome: wire.Commit, Coord: "c"},
		{Txn: txn(8), Role: RolePart, Phase: CkptPrepared, Coord: "c"},
	}
}

func TestCheckpointWritesSnapshotRecordLast(t *testing.T) {
	store := NewMemStore()
	l, _ := Open(store)
	for i := 1; i <= 3; i++ {
		l.AppendForce(Record{Kind: KCommit, Txn: txn(uint64(i))})
	}
	entries := ckptEntries()
	if _, err := l.Checkpoint(func(r Record) bool { return r.Txn.Seq >= 2 }, entries); err != nil {
		t.Fatal(err)
	}
	recs := l.Records()
	if len(recs) != 3 {
		t.Fatalf("after checkpoint: %d records, want 2 live + 1 snapshot", len(recs))
	}
	snap := recs[2]
	if snap.Kind != KRecCheckpoint {
		t.Fatalf("snapshot record not last: %v", recs)
	}
	if len(snap.Ckpt) != len(entries) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap.Ckpt), len(entries))
	}
	for i := range entries {
		if snap.Ckpt[i] != entries[i] {
			t.Errorf("entry %d changed: %+v vs %+v", i, snap.Ckpt[i], entries[i])
		}
	}
	// The snapshot survives a restart on the same storage.
	l2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	recs2 := l2.Records()
	if len(recs2) != 3 || recs2[2].Kind != KRecCheckpoint || len(recs2[2].Ckpt) != len(entries) {
		t.Fatalf("reopened after snapshot checkpoint: %v", recs2)
	}
}

func TestCheckpointReplacesPriorSnapshot(t *testing.T) {
	l, _ := Open(NewMemStore())
	l.AppendForce(Record{Kind: KInitiation, Txn: txn(1)})
	if _, err := l.Checkpoint(func(Record) bool { return true }, ckptEntries()); err != nil {
		t.Fatal(err)
	}
	l.AppendForce(Record{Kind: KInitiation, Txn: txn(2)})
	if _, err := l.Checkpoint(func(Record) bool { return true }, ckptEntries()[:1]); err != nil {
		t.Fatal(err)
	}
	var snaps int
	recs := l.Records()
	for _, r := range recs {
		if r.Kind == KRecCheckpoint {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshot records after two checkpoints, want 1: %v", snaps, recs)
	}
	if recs[len(recs)-1].Kind != KRecCheckpoint || len(recs[len(recs)-1].Ckpt) != 1 {
		t.Fatalf("latest snapshot not last or wrong entries: %v", recs)
	}
}

func TestCheckpointNilEntriesEmptiesTerminatedLog(t *testing.T) {
	// The judges' final garbage-collection pass uses the nil-entries form: a
	// fully terminated run must empty the log completely, snapshot included.
	l, _ := Open(NewMemStore())
	l.AppendForce(Record{Kind: KCommit, Txn: txn(1)})
	if _, err := l.Checkpoint(func(Record) bool { return true }, ckptEntries()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(func(Record) bool { return false }, nil); err != nil {
		t.Fatal(err)
	}
	if recs := l.Records(); len(recs) != 0 {
		t.Fatalf("terminated log not empty after nil-entries checkpoint: %v", recs)
	}
}

func TestCheckpointSnapshotWithoutLiveRecords(t *testing.T) {
	// Entries alone justify a snapshot: a table whose every record was
	// collected but whose entries are non-empty still writes one.
	l, _ := Open(NewMemStore())
	l.AppendForce(Record{Kind: KEnd, Txn: txn(1)})
	if _, err := l.Checkpoint(func(Record) bool { return false }, ckptEntries()); err != nil {
		t.Fatal(err)
	}
	recs := l.Records()
	if len(recs) != 1 || recs[0].Kind != KRecCheckpoint {
		t.Fatalf("want lone snapshot record, got %v", recs)
	}
}

func TestSuffixAfterCheckpointAndProtocolRecords(t *testing.T) {
	recs := []Record{
		{Kind: KInitiation, Txn: txn(1)},
		{Kind: KRecCheckpoint},
		{Kind: KCommit, Txn: txn(1)},
		{Kind: KRecCheckpoint},
		{Kind: KInitiation, Txn: txn(2)},
		{Kind: KCommit, Txn: txn(2)},
	}
	if got := SuffixAfterCheckpoint(recs); got != 2 {
		t.Errorf("SuffixAfterCheckpoint = %d, want 2 (after the last snapshot)", got)
	}
	if got := ProtocolRecords(recs); got != 4 {
		t.Errorf("ProtocolRecords = %d, want 4", got)
	}
	if got := SuffixAfterCheckpoint(recs[:1]); got != 1 {
		t.Errorf("SuffixAfterCheckpoint without snapshot = %d, want whole log", got)
	}
	if got := SuffixAfterCheckpoint(nil); got != 0 {
		t.Errorf("SuffixAfterCheckpoint(nil) = %d", got)
	}
}

func TestSetCheckpointTriggerFiresOnCadence(t *testing.T) {
	l, _ := Open(NewMemStore())
	fired := make(chan struct{}, 8)
	l.SetCheckpointTrigger(3, func() { fired <- struct{}{} })
	for i := 0; i < 3; i++ {
		l.AppendForce(Record{Kind: KCommit, Txn: txn(uint64(i))})
	}
	if len(fired) != 1 {
		t.Fatalf("trigger fired %d times after 3 forced records, want 1", len(fired))
	}
	// The trigger stays quiet while a checkpoint is pending, however many
	// records land meanwhile.
	for i := 3; i < 9; i++ {
		l.AppendForce(Record{Kind: KCommit, Txn: txn(uint64(i))})
	}
	if len(fired) != 1 {
		t.Fatalf("trigger re-fired while checkpoint pending: %d", len(fired))
	}
	// A completed checkpoint re-arms it.
	<-fired
	if _, err := l.Checkpoint(func(Record) bool { return true }, nil); err != nil {
		t.Fatal(err)
	}
	for i := 9; i < 12; i++ {
		l.AppendForce(Record{Kind: KCommit, Txn: txn(uint64(i))})
	}
	if len(fired) != 1 {
		t.Fatalf("trigger did not re-arm after checkpoint: fired %d times", len(fired))
	}
}

// gatedRewriteStore blocks BeginRewrite until released, exposing the window
// in which the checkpoint's bulk rewrite runs with the log unlocked.
type gatedRewriteStore struct {
	*MemStore
	entered chan struct{}
	release chan struct{}
}

func newGatedRewriteStore() *gatedRewriteStore {
	return &gatedRewriteStore{
		MemStore: NewMemStore(),
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
	}
}

func (s *gatedRewriteStore) BeginRewrite(recs []Record) (PendingRewrite, error) {
	s.entered <- struct{}{}
	<-s.release
	return s.MemStore.BeginRewrite(recs)
}

func TestCheckpointDoesNotBlockConcurrentForce(t *testing.T) {
	store := newGatedRewriteStore()
	l, _ := Open(store)
	l.AppendForce(Record{Kind: KEnd, Txn: txn(1)})    // dead
	l.AppendForce(Record{Kind: KCommit, Txn: txn(2)}) // live
	done := make(chan error, 1)
	go func() {
		_, err := l.Checkpoint(func(r Record) bool { return r.Txn.Seq != 1 }, ckptEntries())
		done <- err
	}()
	<-store.entered
	// The rewrite is staging; a concurrent force must complete against the
	// old image rather than stall behind the disk write.
	if _, err := l.AppendForce(Record{Kind: KCommit, Txn: txn(3)}); err != nil {
		t.Fatal(err)
	}
	close(store.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The mid-rewrite record was reconciled into the new image exactly once,
	// after the snapshot.
	var seq3 int
	recs := l.Records()
	for _, r := range recs {
		if r.Txn.Seq == 3 {
			seq3++
		}
	}
	if seq3 != 1 {
		t.Fatalf("mid-rewrite record appears %d times: %v", seq3, recs)
	}
	if last := recs[len(recs)-1]; last.Txn.Seq != 3 {
		t.Fatalf("mid-rewrite record not in the suffix: %v", recs)
	}
	if got := SuffixAfterCheckpoint(recs); got != 1 {
		t.Fatalf("SuffixAfterCheckpoint = %d, want 1", got)
	}
	// The reconciled image is what the store itself holds.
	l2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if ProtocolRecords(l2.Records()) != 2 {
		t.Fatalf("reopened image wrong: %v", l2.Records())
	}
}

func TestCrashAbortsStagedCheckpoint(t *testing.T) {
	store := newGatedRewriteStore()
	l, _ := Open(store)
	l.AppendForce(Record{Kind: KCommit, Txn: txn(1)})
	l.AppendForce(Record{Kind: KCommit, Txn: txn(2)})
	done := make(chan error, 1)
	go func() {
		_, err := l.Checkpoint(func(Record) bool { return true }, ckptEntries())
		done <- err
	}()
	<-store.entered
	l.Crash()
	close(store.release)
	if err := <-done; !errors.Is(err, ErrCheckpointAborted) {
		t.Fatalf("checkpoint racing a crash: err = %v, want ErrCheckpointAborted", err)
	}
	// The staged image was abandoned: the store still holds the pre-crash
	// records and no snapshot.
	recs := l.Records()
	if len(recs) != 2 || recs[0].Txn.Seq != 1 || recs[1].Txn.Seq != 2 {
		t.Fatalf("after aborted checkpoint: %v", recs)
	}
	for _, r := range recs {
		if r.Kind == KRecCheckpoint {
			t.Fatalf("stale snapshot committed past a crash: %v", recs)
		}
	}
}

func TestCheckpointUnderConcurrentForcing(t *testing.T) {
	path := t.TempDir() + "/site.wal"
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := Open(fs)
	const writers, per = 4, 40
	var wg sync.WaitGroup
	lsnCh := make(chan uint64, writers*per)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.AppendForce(Record{Kind: KCommit, Txn: wire.TxnID{Coord: "c", Seq: uint64(w*per + i)}})
				if err != nil {
					t.Error(err)
					return
				}
				lsnCh <- lsn
			}
		}(w)
	}
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for i := 0; i < 8; i++ {
			if _, err := l.Checkpoint(func(r Record) bool { return true }, ckptEntries()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-ckptDone
	close(lsnCh)

	want := make(map[uint64]bool, writers*per)
	for lsn := range lsnCh {
		want[lsn] = true
	}
	got := make(map[uint64]int)
	for _, r := range l.Records() {
		if r.Kind == KRecCheckpoint {
			continue
		}
		got[r.LSN]++
	}
	if len(got) != len(want) {
		t.Fatalf("%d distinct forced records survive, want %d", len(got), len(want))
	}
	for lsn := range want {
		if got[lsn] != 1 {
			t.Fatalf("forced LSN %d appears %d times after checkpoints", lsn, got[lsn])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The on-disk image agrees with the in-memory view.
	fs2, _ := OpenFileStore(path)
	l2, err := Open(fs2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n := ProtocolRecords(l2.Records()); n != len(want) {
		t.Fatalf("reopened image holds %d protocol records, want %d", n, len(want))
	}
}
