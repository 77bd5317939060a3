package experiments

import (
	"fmt"
	"time"

	"prany/internal/core"
	"prany/internal/metrics"
	"prany/internal/sim"
	"prany/internal/wire"
)

// ObsLatencyRow is one span's latency distribution under the E16 pipelined
// workload: where a committing transaction's wall-clock time actually goes.
// SpanCommit is the end-to-end headline; SpanPrepare and SpanAck split it
// at the decision point; SpanWALForce and SpanFrameFlush are the two
// device-shaped contributors underneath.
type ObsLatencyRow struct {
	Span  string        `json:"span"`
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// ObsRetentionRound is one round of the E17 retention-age comparison: after
// each batch of commits plus a fixed convergence budget, the oldest
// protocol-table entry's age at the coordinator. Under C2PC the maximum age
// is the age of round one's entries — it grows without bound, Theorem 2 as
// a live /txns observation. Under PrAny the table drains, so the age
// resets to zero (or the in-flight tail) every round.
type ObsRetentionRound struct {
	Round         int     `json:"round"`
	C2PCRetained  int     `json:"c2pc_retained"`
	C2PCMaxAgeMS  float64 `json:"c2pc_max_age_ms"`
	PrAnyRetained int     `json:"prany_retained"`
	PrAnyMaxAgeMS float64 `json:"prany_max_age_ms"`
}

// ObsResult is E17: the observability subsystem pointed at the two claims
// it was built to expose. Point and Latency are commit-latency percentiles
// (per span) under the E16 TCP workload; Retention is the C2PC-vs-PrAny
// protocol-table age curve.
type ObsResult struct {
	Point     PipelinePoint       `json:"pipeline_point"`
	Latency   []ObsLatencyRow     `json:"latency"`
	Retention []ObsRetentionRound `json:"retention"`
}

// MeasureObs runs E17. The latency half reuses the batching-on E16
// configuration (clients concurrent clients, txns transactions over real
// TCP); the retention half runs rounds batches of txnsPerRound commits on
// in-process clusters, sampling the coordinator's protocol table between
// batches.
func MeasureObs(clients, txns int, seed int64, rounds, txnsPerRound int) (ObsResult, error) {
	var res ObsResult
	pt, met, err := measurePipeline(clients, txns, seed)
	if err != nil {
		return res, err
	}
	res.Point = pt
	for _, s := range metrics.Spans() {
		h := met.Hist(s)
		res.Latency = append(res.Latency, ObsLatencyRow{
			Span:  s.String(),
			Count: h.Count,
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		})
	}
	res.Retention, err = measureRetentionAges(rounds, txnsPerRound)
	return res, err
}

// retentionRun is one strategy's half of the age curve.
type retentionRun struct {
	retained []int
	maxAgeMS []float64
}

// measureRetentionAges drives C2PC(PrN) and PrAny through the same
// commit-only workload and samples coordinator PT size and oldest-entry age
// after each round's convergence budget.
func measureRetentionAges(rounds, txnsPerRound int) ([]ObsRetentionRound, error) {
	c2pc, err := retentionAges(core.StrategyC2PC, wire.PrN, rounds, txnsPerRound)
	if err != nil {
		return nil, fmt.Errorf("c2pc: %w", err)
	}
	prany, err := retentionAges(core.StrategyPrAny, wire.PrN, rounds, txnsPerRound)
	if err != nil {
		return nil, fmt.Errorf("prany: %w", err)
	}
	out := make([]ObsRetentionRound, rounds)
	for i := range out {
		out[i] = ObsRetentionRound{
			Round:         i + 1,
			C2PCRetained:  c2pc.retained[i],
			C2PCMaxAgeMS:  c2pc.maxAgeMS[i],
			PrAnyRetained: prany.retained[i],
			PrAnyMaxAgeMS: prany.maxAgeMS[i],
		}
	}
	return out, nil
}

func retentionAges(strategy core.Strategy, native wire.Protocol, rounds, txnsPerRound int) (retentionRun, error) {
	var run retentionRun
	cluster, err := sim.New(sim.Spec{
		Strategy: strategy,
		Native:   native,
		Participants: []sim.PartSpec{
			{ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC},
		},
		VoteTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		return run, err
	}
	defer cluster.Close()

	for r := 0; r < rounds; r++ {
		for i := 0; i < txnsPerRound; i++ {
			txn := cluster.Coord.Begin()
			for _, id := range []wire.SiteID{"pa", "pc"} {
				if err := txn.Put(id, fmt.Sprintf("k%d-%d", r, i), "v"); err != nil {
					return run, err
				}
			}
			if out, err := txn.Commit(); err != nil || out != wire.Commit {
				return run, fmt.Errorf("round %d txn %d: %v %v", r, i, out, err)
			}
		}
		// PrAny drains well inside the budget; C2PC burns all of it waiting
		// for acks the PrC participant will never send, which is exactly the
		// age growth the round samples.
		cluster.Quiesce(300 * time.Millisecond)
		run.retained = append(run.retained, cluster.Coord.Coordinator().PTSize())
		var maxAge time.Duration
		for _, e := range cluster.Coord.Coordinator().PTDump() {
			if e.Age > maxAge {
				maxAge = e.Age
			}
		}
		run.maxAgeMS = append(run.maxAgeMS, float64(maxAge)/float64(time.Millisecond))
	}
	return run, nil
}
