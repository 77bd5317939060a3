package wal

import (
	"sync"
	"time"
)

// Store is the stable-storage backend of a Log. Append and Rewrite must be
// durable when they return: after either, Load (including a Load by a fresh
// Store opened on the same medium) returns the stored records.
type Store interface {
	// Load returns every durably stored record in append order.
	Load() ([]Record, error)
	// Append durably adds recs after the existing records.
	Append(recs []Record) error
	// Rewrite durably replaces the entire contents with recs (used by
	// checkpointing).
	Rewrite(recs []Record) error
	// Close releases the backend.
	Close() error
}

// Rewriter is an optional Store capability: a two-phase Rewrite that lets
// the log do the bulk of a checkpoint outside its own lock. BeginRewrite
// durably stages recs as a new image without touching the current one — the
// store keeps serving Load and Append from the old image until Commit.
type Rewriter interface {
	BeginRewrite(recs []Record) (PendingRewrite, error)
}

// PendingRewrite is a staged image awaiting its atomic switch.
type PendingRewrite interface {
	// Commit appends suffix (records stored after the stage was taken) to
	// the staged image and durably, atomically makes it the store's
	// contents.
	Commit(suffix []Record) error
	// Abort discards the staged image, leaving the store unchanged.
	Abort()
}

// MemStore is an in-memory Store used by the simulator. "Stable" here means
// it survives Log.Crash — the simulator never destroys the MemStore itself,
// mirroring a disk that outlives the process.
//
// Records live in append-only segments rather than one flat slice: a flat
// array doubling through a hundred-thousand-record run re-zeroes and
// re-copies megabytes on the commit hot path, while a full segment is
// simply left behind and a fresh one started — append cost is flat
// regardless of log length.
type MemStore struct {
	mu   sync.Mutex
	segs [][]Record // only the last segment has spare capacity
	n    int        // total records across segs
	// FailNextAppend, when set, makes the next Append return an error and
	// clear itself. Tests use it to exercise force-write failure paths.
	FailNextAppend error
	// delay models device latency: every Append (one fsync batch) sleeps
	// this long while holding the store's lock, like a real serialized
	// flush. Tests and experiments use it to make force coalescing visible.
	delay time.Duration
}

// memSegSize is the record capacity of one MemStore segment.
const memSegSize = 1024

// SetAppendDelay sets the simulated per-batch fsync latency.
func (s *MemStore) SetAppendDelay(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delay = d
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Load implements Store.
func (s *MemStore) Load() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, s.n)
	for _, seg := range s.segs {
		for i := range seg {
			out = append(out, cloneRecord(&seg[i]))
		}
	}
	return out, nil
}

// Append implements Store.
func (s *MemStore) Append(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.FailNextAppend; err != nil {
		s.FailNextAppend = nil
		return err
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	for i := range recs {
		if len(s.segs) == 0 || len(s.segs[len(s.segs)-1]) == cap(s.segs[len(s.segs)-1]) {
			s.segs = append(s.segs, make([]Record, 0, memSegSize))
		}
		last := len(s.segs) - 1
		s.segs[last] = append(s.segs[last], cloneRecord(&recs[i]))
	}
	s.n += len(recs)
	return nil
}

// growRecords makes room for n more records, doubling capacity when short.
// The runtime's append growth falls toward 1.25x for large slices, which at
// hundred-thousand-record logs means a multi-megabyte reallocation (alloc,
// zero, copy) every few percent of growth — on the commit hot path that is
// measurable GC pressure. Doubling keeps reallocations logarithmic in the
// log length.
func growRecords(dst []Record, n int) []Record {
	if len(dst)+n <= cap(dst) {
		return dst
	}
	out := make([]Record, len(dst), 2*(len(dst)+n))
	copy(out, dst)
	return out
}

// Rewrite implements Store.
func (s *MemStore) Rewrite(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replaceLocked(cloneRecords(recs))
	return nil
}

// replaceLocked swaps the store's contents for the already-cloned image.
// The image becomes a sealed segment (it has no spare capacity), so the
// next Append starts a fresh tail segment.
func (s *MemStore) replaceLocked(image []Record) {
	s.segs = s.segs[:0]
	if len(image) > 0 {
		s.segs = append(s.segs, image)
	}
	s.n = len(image)
}

// BeginRewrite implements Rewriter: the staged image is a private clone,
// so the live contents keep serving until Commit swaps them atomically
// (under the store lock — the in-memory analogue of an atomic rename).
func (s *MemStore) BeginRewrite(recs []Record) (PendingRewrite, error) {
	return &memPending{s: s, staged: cloneRecords(recs)}, nil
}

type memPending struct {
	s      *MemStore
	staged []Record
}

func (p *memPending) Commit(suffix []Record) error {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	p.s.replaceLocked(append(p.staged, cloneRecords(suffix)...))
	return nil
}

func (p *memPending) Abort() {}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// Len returns the number of stored records.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func cloneRecords(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i := range recs {
		out[i] = cloneRecord(&recs[i])
	}
	return out
}

// cloneRecord deep-copies one record's owned slices (Votes are immutable
// once logged and stay shared).
func cloneRecord(r *Record) Record {
	out := *r
	if r.Participants != nil {
		out.Participants = append([]ParticipantInfo(nil), r.Participants...)
	}
	if r.Writes != nil {
		out.Writes = append([]Update(nil), r.Writes...)
	}
	if r.Ckpt != nil {
		out.Ckpt = append([]CheckpointEntry(nil), r.Ckpt...)
	}
	return out
}
