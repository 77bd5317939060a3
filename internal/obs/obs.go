// Package obs is the observability subsystem: a low-overhead
// per-transaction trace recorder, the protocol-table dump types behind the
// /txns introspection endpoint, and the HTTP server that exposes both plus
// metrics and pprof on a live site.
//
// The recorder answers a question the history recorder cannot: not *what*
// happened (internal/history is the correctness oracle and stays that) but
// *when* — when a transaction forced its commit record, how long a PrC ack
// lingered, what the coordinator's protocol table looked like mid-run.
// Definition 1's clauses are all "eventually" claims; the trace turns them
// into measurable timelines.
//
// The engines reach the recorder through one nullable pointer on core.Env.
// With a nil recorder the entire cost of the subsystem is one branch per
// hook site; sim, mcheck and the serial scheduler run bit-identically with
// tracing off. With a recorder attached, each event takes one atomic
// increment for the global sequence number plus one short critical section
// on 1-of-16 ring shards — no allocation, no I/O, no global lock.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prany/internal/wire"
)

// Kind classifies one trace event. The protocol kinds mirror the steps of
// the paper's two phases; the chaos kinds mark injected faults so a failing
// episode's timeline shows the fault next to the step it broke.
type Kind uint8

const (
	// EvBegin: the coordinator inserted the transaction into its protocol
	// table and is about to drive the voting phase.
	EvBegin Kind = iota
	// EvPrepareSend / EvPrepareRecv: a prepare left the coordinator for
	// Peer / arrived at a participant from Peer.
	EvPrepareSend
	EvPrepareRecv
	// EvForce: one forced log write (span; Dur covers the append-and-sync,
	// wait for a shared barrier included). Note names the record kind.
	EvForce
	// EvVote: a participant voted (Note: yes/no/readonly). EvVoteRecv: the
	// vote arrived at the coordinator from Peer.
	EvVote
	EvVoteRecv
	// EvDecide: the coordinator fixed the outcome (Note: commit/abort).
	// EvDecisionSend / EvDecisionRecv: the decision left for Peer / arrived
	// at a participant.
	EvDecide
	EvDecisionSend
	EvDecisionRecv
	// EvAckSend / EvAckRecv: a decision acknowledgment left a participant
	// for Peer / arrived at the coordinator from Peer.
	EvAckSend
	EvAckRecv
	// EvPTDelete: the coordinator forgot the transaction — the protocol
	// table entry is gone (Definition 1, clause 2). EvForget: a participant
	// forgot (clause 3).
	EvPTDelete
	EvForget
	// EvCrash / EvRecover: a site fail-stopped / restarted.
	EvCrash
	EvRecover
	// Chaos-injected faults: a message dropped, held, or duplicated, and a
	// WAL sync failure. Site is the sender, Peer the destination, Note the
	// message kind.
	EvDrop
	EvDelay
	EvDup
	EvWALFail

	numKinds
)

var kindNames = [numKinds]string{
	EvBegin:        "begin",
	EvPrepareSend:  "prepare-send",
	EvPrepareRecv:  "prepare-recv",
	EvForce:        "force",
	EvVote:         "vote",
	EvVoteRecv:     "vote-recv",
	EvDecide:       "decide",
	EvDecisionSend: "decision-send",
	EvDecisionRecv: "decision-recv",
	EvAckSend:      "ack-send",
	EvAckRecv:      "ack-recv",
	EvPTDelete:     "pt-delete",
	EvForget:       "forget",
	EvCrash:        "crash",
	EvRecover:      "recover",
	EvDrop:         "chaos-drop",
	EvDelay:        "chaos-delay",
	EvDup:          "chaos-dup",
	EvWALFail:      "chaos-walfail",
}

// String names the kind as it appears in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded trace event. TS is nanoseconds since the recorder's
// epoch; Dur is nonzero only for span events (a forced write). Peer is the
// other site involved, when there is one; Note carries the short detail
// (outcome, vote, record kind).
type Event struct {
	Seq  uint64
	TS   int64
	Dur  int64
	Kind Kind
	Site wire.SiteID
	Peer wire.SiteID
	Txn  wire.TxnID
	Note string
}

// shardCount is the number of ring shards; a power of two so the sequence
// number folds with a mask. Events spread round-robin by sequence, so two
// concurrently-recording sites almost never contend on one shard mutex.
const shardCount = 16

type ringShard struct {
	mu   sync.Mutex
	ring []Event
	n    uint64 // events ever written to this shard
}

// Recorder is a bounded, sharded ring buffer of trace events. It is safe
// for concurrent use; when the buffer is full the oldest events are
// overwritten — a flight recorder, not a log.
type Recorder struct {
	epoch  time.Time
	seq    atomic.Uint64
	shards [shardCount]ringShard
}

// NewRecorder builds a recorder holding at least capacity events before
// wrapping (rounded up to shardCount rings of power-of-two length).
// Capacity <= 0 means 1<<14.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	per := 1
	for per*shardCount < capacity {
		per <<= 1
	}
	r := &Recorder{epoch: time.Now()}
	for i := range r.shards {
		r.shards[i].ring = make([]Event, per)
	}
	return r
}

// Now returns nanoseconds since the recorder's epoch — the TS a caller
// captures before a span and passes to RecordSpan.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// At converts a wall-clock instant to the recorder's epoch-relative
// nanoseconds, for callers that captured a time.Time before knowing
// whether a recorder was attached.
func (r *Recorder) At(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// Record stores one event, assigning its sequence number and, when the
// caller left TS zero, its timestamp.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	ev.Seq = r.seq.Add(1)
	if ev.TS == 0 {
		ev.TS = r.Now()
	}
	s := &r.shards[ev.Seq&(shardCount-1)]
	s.mu.Lock()
	s.ring[s.n&uint64(len(s.ring)-1)] = ev
	s.n++
	s.mu.Unlock()
}

// RecordSpan stores a span event started at start (a value from Now):
// TS is the start, Dur the elapsed time since.
func (r *Recorder) RecordSpan(ev Event, start int64) {
	if r == nil {
		return
	}
	ev.TS = start
	ev.Dur = r.Now() - start
	r.Record(ev)
}

// Len reports how many events the recorder currently holds (at most its
// capacity; older events have been overwritten).
func (r *Recorder) Len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if s.n < uint64(len(s.ring)) {
			n += int(s.n)
		} else {
			n += len(s.ring)
		}
		s.mu.Unlock()
	}
	return n
}

// Snapshot returns the retained events in recording order (by sequence
// number). It is a copy; recording continues undisturbed.
func (r *Recorder) Snapshot() []Event {
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		kept := uint64(len(s.ring))
		if s.n < kept {
			kept = s.n
		}
		for j := s.n - kept; j < s.n; j++ {
			out = append(out, s.ring[j&uint64(len(s.ring)-1)])
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// PTEntry is one live protocol-table entry as the /txns endpoint reports
// it: which site holds it in which role, how far the transaction got, and
// how long the entry has existed — the quantity Theorem 2 says grows
// without bound under C2PC while Definition 1 makes it transient.
type PTEntry struct {
	Txn   wire.TxnID  `json:"-"`
	TxnID string      `json:"txn"`
	Site  wire.SiteID `json:"site"`
	Role  string      `json:"role"`  // "coordinator" or "participant"
	Proto string      `json:"proto"` // chosen / participant protocol
	State string      `json:"state"` // voting, draining, executing, prepared
	// Outcome is set once decided ("commit"/"abort"); empty while voting.
	Outcome string `json:"outcome,omitempty"`
	// Peer is the coordinator a participant entry answers to.
	Peer wire.SiteID `json:"peer,omitempty"`
	// AcksExpected and AcksPending count the decision acknowledgments a
	// draining coordinator entry still waits for. A C2PC entry whose
	// pending count can never reach zero is Theorem 2 made visible.
	AcksExpected int `json:"acks_expected,omitempty"`
	AcksPending  int `json:"acks_pending,omitempty"`
	// Age is how long ago the entry was created.
	Age time.Duration `json:"-"`
	// AgeMS is the age in milliseconds, for the JSON dump.
	AgeMS float64 `json:"age_ms"`
}

// SortPTEntries orders entries by site, then role, then transaction —
// a stable order for dumps and tests.
func SortPTEntries(entries []PTEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		return a.Txn.String() < b.Txn.String()
	})
}
