package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{time.Millisecond, 10},
		{time.Hour, histBuckets - 1},
		{-time.Second, 0}, // Observe clamps, bucketIndex sees 0 via uint64 div? guarded below
	}
	for _, c := range cases {
		if c.d < 0 {
			continue // negative durations never reach bucketIndex (Observe clamps)
		}
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBucketUpper(t *testing.T) {
	if got := BucketUpper(0); got != time.Microsecond {
		t.Fatalf("BucketUpper(0) = %v, want 1µs", got)
	}
	if got := BucketUpper(10); got != 1024*time.Microsecond {
		t.Fatalf("BucketUpper(10) = %v, want 1.024ms", got)
	}
	if BucketUpper(100) != BucketUpper(histBuckets-1) {
		t.Fatal("BucketUpper does not clamp past the overflow bucket")
	}
}

// Every observable duration must satisfy d < BucketUpper(bucketIndex(d)) —
// the bucket's bound really is an upper bound — except in the overflow
// bucket, which has none.
func TestBucketInvariant(t *testing.T) {
	for _, d := range []time.Duration{
		0, 1, 999, time.Microsecond, 5 * time.Microsecond,
		777 * time.Microsecond, 3 * time.Millisecond, 2 * time.Second,
	} {
		i := bucketIndex(d)
		if d >= BucketUpper(i) {
			t.Errorf("d=%v landed in bucket %d with upper %v", d, i, BucketUpper(i))
		}
		if i > 0 && d < BucketUpper(i-1)/2 {
			t.Errorf("d=%v landed in bucket %d, far above its magnitude", d, i)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	h.Observe(-time.Second) // clamps to 0
	s := h.snapshot()
	if s.Count != 3 {
		t.Fatalf("Count = %d, want 3", s.Count)
	}
	if s.Sum != 6*time.Millisecond {
		t.Fatalf("Sum = %v, want 6ms (negative clamped to 0)", s.Sum)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var s HistSnapshot
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot must report zero quantiles")
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Microsecond) // bucket (2µs, 4µs]
	}
	s := h.snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got <= 2*time.Microsecond || got > 4*time.Microsecond {
			t.Fatalf("Quantile(%v) = %v, want within (2µs, 4µs]", q, got)
		}
	}
}

func TestQuantileSplit(t *testing.T) {
	var h Histogram
	// 90 fast observations (~3µs), 10 slow (~3ms): the p50 must sit in the
	// fast bucket, the p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3 * time.Millisecond)
	}
	s := h.snapshot()
	if p50 := s.P50(); p50 > 4*time.Microsecond {
		t.Fatalf("P50 = %v, want <= 4µs", p50)
	}
	p95, p99 := s.Quantile(0.95), s.Quantile(0.99)
	if p99 < 2*time.Millisecond || p99 > 4*time.Millisecond {
		t.Fatalf("p99 = %v, want within (2ms, 4ms]", p99)
	}
	if s.P50() > p95 || p95 > p99 {
		t.Fatalf("percentiles not monotonic: p50=%v p95=%v p99=%v", s.P50(), p95, p99)
	}
}

func TestRegistryObserveAndReset(t *testing.T) {
	r := NewRegistry()
	r.Observe(SpanCommit, time.Millisecond)
	r.Observe(SpanWALForce, 10*time.Microsecond)
	if got := r.Hist(SpanCommit).Count; got != 1 {
		t.Fatalf("SpanCommit count = %d, want 1", got)
	}
	if got := r.Hist(SpanAck).Count; got != 0 {
		t.Fatalf("SpanAck count = %d, want 0", got)
	}
	r.Reset()
	if got := r.Hist(SpanCommit).Count; got != 0 {
		t.Fatalf("after Reset, SpanCommit count = %d, want 0", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("Count = %d, want %d", s.Count, goroutines*per)
	}
	var inBuckets uint64
	for _, n := range s.Buckets {
		inBuckets += n
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket sum %d != count %d", inBuckets, s.Count)
	}
}

func TestSpanNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Spans() {
		name := s.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("span %d has bad or duplicate name %q", s, name)
		}
		seen[name] = true
	}
	if !seen["commit"] || !seen["wal_force"] {
		t.Fatal("expected span names missing")
	}
}

func TestWritePrometheusSpans(t *testing.T) {
	r := NewRegistry()
	r.Observe(SpanCommit, 100*time.Microsecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Every span's series must appear even when empty, so scrapers see
	// stable names from the first scrape.
	for _, s := range Spans() {
		if !strings.Contains(out, "prany_span_"+s.String()+"_seconds_count") {
			t.Fatalf("WritePrometheus missing span %s:\n%s", s, out)
		}
	}
	if !strings.Contains(out, "prany_span_commit_seconds_count 1") {
		t.Fatalf("commit count line missing:\n%s", out)
	}
	if !strings.Contains(out, `prany_span_commit_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("+Inf bucket missing:\n%s", out)
	}
}
