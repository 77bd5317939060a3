package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Span names one latency distribution the registry tracks. The spans cover
// the commit path end to end: the client-visible commit latency, its two
// protocol phases at the coordinator, the participant's decision
// enforcement, and the two physical costs underneath (forced log writes and
// wire flushes).
type Span uint8

const (
	// SpanCommit is the full Coordinator.Commit call: voting phase, vote
	// wait, decision logging and decision send — what a client observes.
	SpanCommit Span = iota
	// SpanPrepare is the voting phase: protocol-table insert to decision
	// fixed (prepares out, votes back, initiation/decision forces).
	SpanPrepare
	// SpanAck is the drain phase: decision fixed to protocol-table delete —
	// how long the coordinator had to remember a decided transaction. Under
	// C2PC this distribution loses its tail to entries that never finish.
	SpanAck
	// SpanDecision is the participant's decision enforcement: decision
	// receipt to acknowledgment sent (decision-record force included).
	SpanDecision
	// SpanWALForce is one forced log write: append to durable, the
	// wait for a shared barrier included.
	SpanWALForce
	// SpanFrameFlush is one physical wire write of a frame batch.
	SpanFrameFlush
	// SpanRecovery is one site recovery: stable-log scan, protocol-table
	// rebuild and re-drive message computation, crash to serving.
	SpanRecovery
	// SpanCheckpoint is one log checkpoint: table snapshot, live-record
	// filter and the stable-image rewrite.
	SpanCheckpoint

	numSpans
)

var spanNames = [numSpans]string{
	SpanCommit:     "commit",
	SpanPrepare:    "prepare",
	SpanAck:        "ack_drain",
	SpanDecision:   "decision",
	SpanWALForce:   "wal_force",
	SpanFrameFlush: "frame_flush",
	SpanRecovery:   "recovery",
	SpanCheckpoint: "checkpoint",
}

// String names the span as it appears in /metrics and bench tables.
func (s Span) String() string {
	if int(s) < len(spanNames) {
		return spanNames[s]
	}
	return "unknown"
}

// Spans lists every tracked span in declaration order.
func Spans() []Span {
	out := make([]Span, numSpans)
	for i := range out {
		out[i] = Span(i)
	}
	return out
}

// histBuckets is the fixed bucket count: bucket 0 holds observations under
// 1µs, bucket i holds [2^(i-1), 2^i) µs, and the last bucket is the
// overflow. 2^30 µs ≈ 18 minutes, far past any commit-path latency.
const histBuckets = 32

// bucketIndex maps a duration to its bucket: the bit length of the
// microsecond count, clamped to the overflow bucket.
func bucketIndex(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	i := bits.Len64(us)
	if i > histBuckets-1 {
		return histBuckets - 1
	}
	return i
}

// BucketUpper is bucket i's exclusive upper bound (the last bucket has
// none and reports the largest finite bound).
func BucketUpper(i int) time.Duration {
	if i >= histBuckets-1 {
		i = histBuckets - 1
	}
	return time.Microsecond << i
}

// Histogram is a fixed-bucket latency histogram with lock-free recording:
// Observe is three atomic adds, safe from any goroutine, cheap enough for
// the wire hot path.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketIndex(d)].Add(1)
}

// reset zeroes the histogram.
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// HistSnapshot is a consistent-enough copy of a histogram (buckets are read
// individually; a snapshot taken mid-Observe can be off by one event).
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Buckets [histBuckets]uint64
}

// snapshot copies the live counters.
func (h *Histogram) snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the bucket holding the target rank. The estimate's
// error is bounded by the bucket width — a factor of two — which is enough
// to tell a 100µs commit path from a 10ms one.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum < rank {
			continue
		}
		lower := time.Duration(0)
		if i > 0 {
			lower = BucketUpper(i - 1)
		}
		upper := BucketUpper(i)
		frac := (rank - prev) / float64(n)
		return lower + time.Duration(float64(upper-lower)*frac)
	}
	return BucketUpper(histBuckets - 1)
}

// P50 is the snapshot's median.
func (s HistSnapshot) P50() time.Duration { return s.Quantile(0.50) }

// Observe records one duration for span s. It is lock-free (the registry
// mutex guards only the per-site counter maps) so engines may call it from
// hot paths, shard locks held.
func (r *Registry) Observe(s Span, d time.Duration) {
	r.hists[s].Observe(d)
}

// Hist snapshots one span's histogram.
func (r *Registry) Hist(s Span) HistSnapshot {
	return r.hists[s].snapshot()
}
