package prany

// One benchmark per experiment in DESIGN.md §4. The numbers that matter are
// the custom metrics (forces/txn, msgs/txn, retained/txn) — they are the
// protocol costs the paper's figures define — while ns/op gives the
// simulator's end-to-end latency shape. cmd/prany-bench prints the same
// data as readable tables; EXPERIMENTS.md records both.

import (
	"fmt"
	"testing"
	"time"

	"prany/internal/core"
	"prany/internal/experiments"
	"prany/internal/sim"
	"prany/internal/wire"
	"prany/internal/workload"
)

// benchCluster builds a cluster for a protocol mix and returns it with a
// per-iteration transaction runner.
func benchCluster(b *testing.B, mix []wire.Protocol, commit bool) (*sim.Cluster, func(i int)) {
	b.Helper()
	spec := sim.Spec{VoteTimeout: 500 * time.Millisecond}
	for i, p := range mix {
		spec.Participants = append(spec.Participants,
			sim.PartSpec{ID: wire.SiteID(fmt.Sprintf("p%d", i+1)), Proto: p})
	}
	cluster, err := sim.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Close)
	ids := cluster.PartIDs()
	run := func(i int) {
		txn := cluster.Coord.Begin()
		if !commit {
			cluster.Parts[ids[len(ids)-1]].Store().Poison(txn.ID())
		}
		for _, id := range ids {
			if err := txn.Put(id, fmt.Sprintf("k%d", i%64), "v"); err != nil {
				b.Fatal(err)
			}
		}
		want := wire.Commit
		if !commit {
			want = wire.Abort
		}
		if out, err := txn.Commit(); err != nil || out != want {
			b.Fatalf("outcome %v, %v", out, err)
		}
	}
	return cluster, run
}

// reportCosts attaches the per-transaction protocol cost metrics.
func reportCosts(b *testing.B, cluster *sim.Cluster, txns int) {
	b.Helper()
	if !cluster.Quiesce(10 * time.Second) {
		b.Fatal("cluster did not quiesce")
	}
	if v := cluster.Violations(); len(v) != 0 {
		b.Fatalf("correctness violated: %v", v[0])
	}
	tot := cluster.Met.Total()
	protoMsgs := tot.Messages[wire.MsgPrepare] + tot.Messages[wire.MsgVote] +
		tot.Messages[wire.MsgDecision] + tot.Messages[wire.MsgAck] + tot.Messages[wire.MsgInquiry]
	b.ReportMetric(float64(tot.Forces)/float64(txns), "forces/txn")
	b.ReportMetric(float64(protoMsgs)/float64(txns), "msgs/txn")
}

func benchProtocol(b *testing.B, mix []wire.Protocol, commit bool) {
	cluster, run := benchCluster(b, mix, commit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.StopTimer()
	reportCosts(b, cluster, b.N)
}

// E1 — Figure 2 (basic 2PC / presumed nothing).
func BenchmarkE1_PrN_Commit(b *testing.B) {
	benchProtocol(b, experiments.Homogeneous(wire.PrN, 4), true)
}
func BenchmarkE1_PrN_Abort(b *testing.B) {
	benchProtocol(b, experiments.Homogeneous(wire.PrN, 4), false)
}

// E2 — Figure 3 (presumed abort).
func BenchmarkE2_PrA_Commit(b *testing.B) {
	benchProtocol(b, experiments.Homogeneous(wire.PrA, 4), true)
}
func BenchmarkE2_PrA_Abort(b *testing.B) {
	benchProtocol(b, experiments.Homogeneous(wire.PrA, 4), false)
}

// E3 — Figure 4 (presumed commit).
func BenchmarkE3_PrC_Commit(b *testing.B) {
	benchProtocol(b, experiments.Homogeneous(wire.PrC, 4), true)
}
func BenchmarkE3_PrC_Abort(b *testing.B) {
	benchProtocol(b, experiments.Homogeneous(wire.PrC, 4), false)
}

// E4 — Figure 1 (Presumed Any over a mixed PrN/PrA/PrC cluster).
func BenchmarkE4_PrAny_Commit(b *testing.B) { benchProtocol(b, experiments.MixedThirds(3), true) }
func BenchmarkE4_PrAny_Abort(b *testing.B)  { benchProtocol(b, experiments.MixedThirds(3), false) }

// E5 — Theorem 1: each iteration runs the full adversarial schedule
// (decision loss, crash, recovery, wrong answer) under U2PC and counts the
// violations it produces; violations/op must be ≥ 1.
func BenchmarkE5_U2PC_Violations(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Theorem1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			total += r.Violations
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "violations/op")
}

// E6 — Theorem 2: retained protocol-table entries per transaction under
// C2PC (must be 1.0: every mixed commit is retained forever) vs PrAny
// (must be 0).
func BenchmarkE6_C2PC_Retention(b *testing.B) {
	pt, err := experiments.Theorem2(core.StrategyC2PC, wire.PrN, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(pt.Retained)/float64(b.N), "retained/txn")
	b.ReportMetric(float64(pt.StableRecords)/float64(b.N), "pinnedRecs/txn")
}

func BenchmarkE6_PrAny_Retention(b *testing.B) {
	pt, err := experiments.Theorem2(core.StrategyPrAny, wire.PrN, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(pt.Retained)/float64(b.N), "retained/txn")
	b.ReportMetric(float64(pt.StableRecords)/float64(b.N), "pinnedRecs/txn")
}

// E7 — Theorem 3: a fault-injection sweep per iteration; violations/op must
// be 0 and quiesced 1.
func BenchmarkE7_PrAny_FaultSweep(b *testing.B) {
	violations, quiesced := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.FaultSweep(core.StrategyPrAny, wire.PrN, 0.10, 10, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		violations += res.Violations
		if res.Quiesced {
			quiesced++
		}
	}
	b.ReportMetric(float64(violations)/float64(b.N), "violations/op")
	b.ReportMetric(float64(quiesced)/float64(b.N), "quiesced/op")
}

// E8 — who wins: one sub-benchmark per protocol × commit ratio.
func BenchmarkE8_Throughput(b *testing.B) {
	mixes := map[string][]wire.Protocol{
		"PrN":   experiments.Homogeneous(wire.PrN, 3),
		"PrA":   experiments.Homogeneous(wire.PrA, 3),
		"PrC":   experiments.Homogeneous(wire.PrC, 3),
		"PrAny": experiments.MixedThirds(3),
	}
	for _, name := range []string{"PrN", "PrA", "PrC", "PrAny"} {
		for _, ratio := range []float64{1.0, 0.5, 0.0} {
			b.Run(fmt.Sprintf("%s/commit=%.0f%%", name, ratio*100), func(b *testing.B) {
				spec := sim.Spec{VoteTimeout: 500 * time.Millisecond}
				for i, p := range mixes[name] {
					spec.Participants = append(spec.Participants,
						sim.PartSpec{ID: wire.SiteID(fmt.Sprintf("p%d", i+1)), Proto: p})
				}
				cluster, err := sim.New(spec)
				if err != nil {
					b.Fatal(err)
				}
				defer cluster.Close()
				plans := workload.Generate(workload.Spec{
					Txns: b.N, SitesPerTxn: 3, OpsPerSite: 1,
					CommitFraction: ratio, KeySpace: 1 << 20, Seed: 5,
				}, cluster.PartIDs())
				b.ResetTimer()
				res := cluster.Run(plans)
				b.StopTimer()
				if res.Errors > 0 {
					b.Fatalf("%d errors", res.Errors)
				}
				reportCosts(b, cluster, b.N)
			})
		}
	}
}

// E10 — read-only optimization ablation.
func BenchmarkE10_ReadOnly(b *testing.B) {
	for _, opt := range []bool{false, true} {
		b.Run(fmt.Sprintf("optimized=%v", opt), func(b *testing.B) {
			pt, err := experiments.MeasureReadOnly(2, opt, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pt.ForcesPerTxn, "forces/txn")
			b.ReportMetric(pt.MsgsPerTxn, "msgs/txn")
		})
	}
}

// E11 — the implicit yes-vote extension: one-phase commits halve the
// protocol message count relative to the two-phase baseline.
func BenchmarkE11_IYV_Commit(b *testing.B) {
	benchProtocol(b, experiments.Homogeneous(wire.IYV, 4), true)
}

func BenchmarkE11_IYV_Mixed(b *testing.B) {
	benchProtocol(b, []wire.Protocol{wire.IYV, wire.PrA, wire.PrC}, true)
}

// E12 — the coordinator-log extension: participants log nothing; the
// coordinator's log carries their write sets.
func BenchmarkE12_CL_Commit(b *testing.B) {
	benchProtocol(b, experiments.Homogeneous(wire.CL, 4), true)
}

func BenchmarkE12_CL_Mixed(b *testing.B) {
	benchProtocol(b, []wire.Protocol{wire.CL, wire.PrA, wire.PrC}, true)
}

// E16 — pipelined commit streams: a concurrent commit workload over real
// TCP. The logical message count is the protocol cost; the physical
// wire-write count per transaction sits well below it because each link's
// writer coalesces whatever queued while its previous write syscall was in
// flight.
func BenchmarkE16_Pipeline(b *testing.B) {
	for _, clients := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			pt, err := experiments.MeasurePipeline(clients, b.N, 16)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pt.TxnsPerSec, "txns/s")
			b.ReportMetric(pt.MsgsPerTxn, "msgs/txn")
			b.ReportMetric(pt.FramesPerTxn, "frames/txn")
			b.ReportMetric(pt.MeanFrameBatch, "msgs/frame")
			b.ReportMetric(pt.AllocsPerTxn, "allocs/txn")
			b.ReportMetric(float64(pt.LatencyP50)/1e6, "p50-ms")
			b.ReportMetric(float64(pt.LatencyP99)/1e6, "p99-ms")
		})
	}
}

// Ablation — the forced initiation record: PrAny's extra coordinator force
// versus homogeneous PrA (which writes none). The delta is the price of
// integration.
func BenchmarkAblation_Initiation(b *testing.B) {
	b.Run("PrA-homogeneous", func(b *testing.B) {
		benchProtocol(b, experiments.Homogeneous(wire.PrA, 2), true)
	})
	b.Run("PrAny-mixed", func(b *testing.B) {
		benchProtocol(b, []wire.Protocol{wire.PrA, wire.PrC}, true)
	})
}
