// Command prany-bench runs every experiment in DESIGN.md §4 and prints the
// tables recorded in EXPERIMENTS.md: the per-protocol cost profiles of
// Figures 1-4 (measured against the analytic model), the Theorem 1
// violation table, the Theorem 2 retention growth curve, the Theorem 3
// fault sweep, the who-wins performance matrix, and the read-only
// optimization ablation.
//
// Usage:
//
//	prany-bench               # everything
//	prany-bench -run costs    # one section: costs, theorem1, theorem2,
//	                          # sweep, perf, readonly, iyv, cl, chaos,
//	                          # pipeline, obs, recovery, consensus
//	prany-bench -run pipeline -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"prany/internal/core"
	"prany/internal/experiments"
	"prany/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// bench carries the output sink and the seed override so every section is
// a method writing to the same place — testable without touching process
// globals.
type bench struct {
	w io.Writer
	// seed overrides every section's random seed when nonzero, so any run
	// reproduces from its printed seed. Zero keeps each section's
	// historical default (sweep 7, perf 99, chaos 1),
	// preserving the committed EXPERIMENTS.md numbers.
	seed int64
	// jsonOut switches the sections that declare JSON support in their
	// registry entry to machine-readable output (the BENCH_<name>.json
	// formats); every other section ignores it.
	jsonOut bool
}

// section is one registry entry: the method that runs it and whether it
// honors -json with a BENCH_<name>.json document. The -run and -json help
// strings and the dispatch are all derived from the registry, so adding a
// section is one sectionOrder entry plus one sections line.
type section struct {
	fn   func() error
	json bool
}

var sectionOrder = []string{"costs", "theorem1", "theorem2", "sweep", "perf", "readonly", "iyv", "cl", "chaos", "pipeline", "obs", "recovery", "consensus"}

func run(args []string, stdout io.Writer) int {
	b := &bench{w: stdout}
	sections := map[string]section{
		"costs":     {fn: b.costs},
		"theorem1":  {fn: b.theorem1},
		"theorem2":  {fn: b.theorem2},
		"sweep":     {fn: b.sweep},
		"perf":      {fn: b.perf},
		"readonly":  {fn: b.readonly},
		"iyv":       {fn: b.iyv},
		"cl":        {fn: b.cl},
		"chaos":     {fn: b.chaosMatrix},
		"pipeline":  {fn: b.pipeline},
		"obs":       {fn: b.obs, json: true},
		"recovery":  {fn: b.recovery, json: true},
		"consensus": {fn: b.consensus, json: true},
	}
	var jsonNames []string
	for _, name := range sectionOrder {
		if sections[name].json {
			jsonNames = append(jsonNames, name)
		}
	}

	fs := flag.NewFlagSet("prany-bench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	which := fs.String("run", "all", "which section to run: all, "+strings.Join(sectionOrder, ", "))
	seed := fs.Int64("seed", 0, "override every section's random seed (0 = per-section defaults)")
	jsonOut := fs.Bool("json", false, "with -run "+strings.Join(jsonNames, ", ")+": emit the results as JSON (the BENCH_<section>.json format)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b.seed, b.jsonOut = *seed, *jsonOut

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stdout, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stdout, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stdout, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stdout, err)
			}
		}()
	}

	if *which == "all" {
		for _, name := range sectionOrder {
			if err := sections[name].fn(); err != nil {
				fmt.Fprintf(stdout, "%s: %v\n", name, err)
				return 1
			}
			fmt.Fprintln(stdout)
		}
		return 0
	}
	sec, ok := sections[strings.ToLower(*which)]
	if !ok {
		fmt.Fprintf(stdout, "unknown section %q (want all, %s)\n", *which, strings.Join(sectionOrder, ", "))
		return 2
	}
	if err := sec.fn(); err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	return 0
}

func (b *bench) header(title string) {
	fmt.Fprintln(b.w, title)
	fmt.Fprintln(b.w, strings.Repeat("-", len(title)))
}

// sectionSeed resolves one section's seed and prints it, so every table's
// header names the seed that regenerates it.
func (b *bench) sectionSeed(def int64) int64 {
	seed := def
	if b.seed != 0 {
		seed = b.seed
	}
	fmt.Fprintf(b.w, "seed: %d\n", seed)
	return seed
}

// costs prints E1-E4: measured cost profiles vs the analytic model.
func (b *bench) costs() error {
	b.header("E1-E4: per-transaction cost profiles (Figures 2, 3, 4a/b, 1a/b)")
	fmt.Fprintf(b.w, "%-18s %-7s %6s | %9s %9s %9s %9s %6s %5s | %s\n",
		"protocol", "outcome", "n", "coordF", "coordRec", "partF", "partRec", "msgs", "acks", "model")
	mixes := [][]wire.Protocol{
		experiments.Homogeneous(wire.PrN, 2),
		experiments.Homogeneous(wire.PrN, 4),
		experiments.Homogeneous(wire.PrN, 8),
		experiments.Homogeneous(wire.PrA, 2),
		experiments.Homogeneous(wire.PrA, 4),
		experiments.Homogeneous(wire.PrA, 8),
		experiments.Homogeneous(wire.PrC, 2),
		experiments.Homogeneous(wire.PrC, 4),
		experiments.Homogeneous(wire.PrC, 8),
		{wire.PrA, wire.PrC},
		experiments.MixedThirds(3),
		experiments.MixedThirds(6),
		experiments.MixedThirds(9),
	}
	for _, mix := range mixes {
		for _, outcome := range []wire.Outcome{wire.Commit, wire.Abort} {
			got, err := experiments.MeasureCost(mix, outcome)
			if err != nil {
				return fmt.Errorf("%v %s: %v", mix, outcome, err)
			}
			want := experiments.ExpectedCost(mix, outcome)
			verdict := "MATCH"
			if got != want {
				verdict = fmt.Sprintf("MISMATCH (want %+v)", want)
			}
			fmt.Fprintf(b.w, "%-18s %-7s %6d | %9d %9d %9d %9d %6d %5d | %s\n",
				got.Label, outcome, got.N, got.CoordForces, got.CoordRecords,
				got.PartForces, got.PartRecords, got.Messages, got.Acks, verdict)
		}
	}
	return nil
}

// theorem1 prints E5: the adversarial schedules of Theorem 1.
func (b *bench) theorem1() error {
	b.header("E5: Theorem 1 — U2PC violates atomicity, PrAny does not")
	rows, err := experiments.Theorem1()
	if err != nil {
		return err
	}
	fmt.Fprintf(b.w, "%-12s %-20s %11s %9s\n", "strategy", "schedule", "violations", "diverged")
	for _, r := range rows {
		fmt.Fprintf(b.w, "%-12s %-20s %11d %9v\n", r.Strategy, r.Schedule, r.Violations, r.Diverged)
	}
	return nil
}

// theorem2 prints E6: retention growth under C2PC vs PrAny.
func (b *bench) theorem2() error {
	b.header("E6: Theorem 2 — C2PC retention grows without bound, PrAny drains")
	fmt.Fprintf(b.w, "%-12s %6s %9s %13s\n", "strategy", "txns", "retained", "pinnedRecords")
	for _, txns := range []int{10, 50, 100, 200} {
		for _, s := range []struct {
			strategy core.Strategy
			native   wire.Protocol
		}{{core.StrategyC2PC, wire.PrN}, {core.StrategyPrAny, wire.PrN}} {
			pt, err := experiments.Theorem2(s.strategy, s.native, txns)
			if err != nil {
				return err
			}
			fmt.Fprintf(b.w, "%-12s %6d %9d %13d\n", pt.Strategy, pt.Txns, pt.Retained, pt.StableRecords)
		}
	}
	return nil
}

// sweep prints E7: Monte-Carlo fault injection under PrAny.
func (b *bench) sweep() error {
	b.header("E7: Theorem 3 — PrAny under omission faults and crashes")
	seed := b.sectionSeed(7)
	fmt.Fprintf(b.w, "%6s %6s %8s %8s %8s %11s %9s %9s\n",
		"drop%", "txns", "commits", "aborts", "crashes", "violations", "quiesced", "leftover")
	for _, p := range []float64{0, 0.05, 0.10, 0.20} {
		res, err := experiments.FaultSweep(core.StrategyPrAny, wire.PrN, p, 40, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(b.w, "%6.0f %6d %8d %8d %8d %11d %9v %9d\n",
			p*100, res.Txns, res.Commits, res.Aborts, res.Crashes,
			res.Violations, res.Quiesced, res.Leftover)
	}
	return nil
}

// perf prints E8: the who-wins matrix across commit ratios.
func (b *bench) perf() error {
	b.header("E8: who wins — throughput and per-txn costs across commit ratios")
	seed := b.sectionSeed(99)
	fmt.Fprintf(b.w, "%-18s %8s | %9s %12s %10s %10s\n",
		"protocol", "commit%", "txns/s", "meanLatency", "forces/txn", "msgs/txn")
	for _, ratio := range []float64{1.0, 0.75, 0.5, 0.25, 0.0} {
		mixes := [][]wire.Protocol{
			experiments.Homogeneous(wire.PrN, 3),
			experiments.Homogeneous(wire.PrA, 3),
			experiments.Homogeneous(wire.PrC, 3),
			experiments.MixedThirds(3),
		}
		if ratio == 1.0 {
			// The one-phase and coordinator-log extensions join the
			// commit-only row (their aborts arise from execution failures,
			// not prepare-time no votes, so the poisoned-abort workload
			// does not apply).
			mixes = append(mixes,
				experiments.Homogeneous(wire.IYV, 3),
				experiments.Homogeneous(wire.CL, 3))
		}
		for _, mix := range mixes {
			pt, err := experiments.MeasurePerf(mix, ratio, 200, 4, seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(b.w, "%-18s %8.0f | %9.0f %12s %10.2f %10.2f\n",
				pt.Label, ratio*100, pt.TxnsPerSec, pt.MeanLatency.Round(1000), pt.ForcesPerTxn, pt.MsgsPerTxn)
		}
		fmt.Fprintln(b.w)
	}
	return nil
}

// iyv prints E11: the implicit yes-vote extension — the paper conclusion's
// future-work protocol integrated under the same criterion.
func (b *bench) iyv() error {
	b.header("E11: implicit yes-vote (one-phase) extension, commit costs")
	fmt.Fprintf(b.w, "%-18s %6s | %9s %9s %9s %9s %6s %5s | %s\n",
		"protocol", "n", "coordF", "coordRec", "partF", "partRec", "msgs", "acks", "model")
	rows := [][]wire.Protocol{
		experiments.Homogeneous(wire.IYV, 2),
		experiments.Homogeneous(wire.IYV, 4),
		experiments.Homogeneous(wire.IYV, 8),
		{wire.IYV, wire.PrA, wire.PrC},
		{wire.IYV, wire.IYV, wire.PrN, wire.PrC},
	}
	for _, mix := range rows {
		got, err := experiments.MeasureCost(mix, wire.Commit)
		if err != nil {
			return err
		}
		want := experiments.ExpectedCost(mix, wire.Commit)
		verdict := "MATCH"
		if got != want {
			verdict = fmt.Sprintf("MISMATCH (want %+v)", want)
		}
		fmt.Fprintf(b.w, "%-18s %6d | %9d %9d %9d %9d %6d %5d | %s\n",
			got.Label, got.N, got.CoordForces, got.CoordRecords,
			got.PartForces, got.PartRecords, got.Messages, got.Acks, verdict)
	}
	fmt.Fprintln(b.w)
	fmt.Fprintln(b.w, "reference: PrA homogeneous commits (two-phase baseline)")
	for _, n := range []int{2, 4, 8} {
		got, err := experiments.MeasureCost(experiments.Homogeneous(wire.PrA, n), wire.Commit)
		if err != nil {
			return err
		}
		fmt.Fprintf(b.w, "%-18s %6d | %9d %9d %9d %9d %6d %5d |\n",
			got.Label, got.N, got.CoordForces, got.CoordRecords,
			got.PartForces, got.PartRecords, got.Messages, got.Acks)
	}
	return nil
}

// cl prints E12: the coordinator-log extension — participants log nothing,
// the coordinator's log is the system's only log.
func (b *bench) cl() error {
	b.header("E12: coordinator log (participants log nothing), commit costs")
	fmt.Fprintf(b.w, "%-22s %6s | %9s %9s %9s %9s %6s %5s | %s\n",
		"protocol", "n", "coordF", "coordRec", "partF", "partRec", "msgs", "acks", "model")
	rows := [][]wire.Protocol{
		experiments.Homogeneous(wire.CL, 2),
		experiments.Homogeneous(wire.CL, 4),
		experiments.Homogeneous(wire.CL, 8),
		{wire.CL, wire.PrA, wire.PrC},
		{wire.CL, wire.IYV, wire.PrN},
	}
	for _, mix := range rows {
		got, err := experiments.MeasureCost(mix, wire.Commit)
		if err != nil {
			return err
		}
		want := experiments.ExpectedCost(mix, wire.Commit)
		verdict := "MATCH"
		if got != want {
			verdict = fmt.Sprintf("MISMATCH (want %+v)", want)
		}
		fmt.Fprintf(b.w, "%-22s %6d | %9d %9d %9d %9d %6d %5d | %s\n",
			got.Label, got.N, got.CoordForces, got.CoordRecords,
			got.PartForces, got.PartRecords, got.Messages, got.Acks, verdict)
	}
	fmt.Fprintln(b.w)
	fmt.Fprintln(b.w, "note: partF/partRec are 0 in every CL row — the participants log nothing;")
	fmt.Fprintln(b.w, "the coordinator pays one forced remote-writes record per shipped vote.")
	return nil
}

// chaosMatrix prints a compact E14: seeded chaos episodes under U2PC, C2PC
// and PrAny with identical fault plans per seed. The full-size matrix lives
// in BENCH_chaos.json via `prany-chaos -e14 -json`.
func (b *bench) chaosMatrix() error {
	b.header("E14: chaos matrix — operational correctness under seeded fault plans")
	seed := b.sectionSeed(1)
	const episodes, txns = 12, 12
	seeds := make([]int64, episodes)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	rows, err := experiments.ChaosMatrix(seeds, txns, 1500*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.w, "%-12s %8s %8s %8s %8s | %9s %9s %9s\n",
		"strategy", "commits", "aborts", "errors", "crashes",
		"atomicity", "retention", "opcheck")
	for _, r := range rows {
		fmt.Fprintf(b.w, "%-12s %8d %8d %8d %8d | %9d %9d %9d\n",
			r.Strategy, r.Commits, r.Aborts, r.Errors, r.Crashes,
			r.AtomicityViolations, r.RetentionLeaks, r.OpcheckViolations)
	}
	return nil
}

// pipeline prints E16: pipelined commit streams — a concurrent commit
// workload over real TCP. msgs/txn is the logical protocol cost (matching
// the paper's tables); frames/txn and msgs/frame show the physical wire
// writes behind it, fewer as concurrency grows because each link's writer
// drains whatever accumulated while its previous write syscall was in
// flight — the network twin of the log's Forces/Syncs split.
func (b *bench) pipeline() error {
	b.header("E16: pipelined commit streams — wire frames collapse under concurrency")
	seed := b.sectionSeed(16)
	fmt.Fprintf(b.w, "%7s | %9s %12s %10s %12s %11s %10s | %9s %9s %9s\n",
		"clients", "txns/s", "meanLatency", "msgs/txn", "frames/txn", "msgs/frame", "bytes/txn",
		"p50", "p95", "p99")
	for _, clients := range []int{16, 64, 256} {
		pt, err := experiments.MeasurePipeline(clients, 2000, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(b.w, "%7d | %9.0f %12s %10.2f %12.2f %11.2f %10.0f | %9s %9s %9s\n",
			clients, pt.TxnsPerSec, pt.MeanLatency.Round(1000),
			pt.MsgsPerTxn, pt.FramesPerTxn, pt.MeanFrameBatch, pt.BytesPerTxn,
			pt.LatencyP50.Round(time.Microsecond), pt.LatencyP95.Round(time.Microsecond),
			pt.LatencyP99.Round(time.Microsecond))
	}
	return nil
}

// obs prints E17: where a committing transaction's wall-clock time goes
// (per-span latency percentiles under the E16 batching-on workload) and
// the live protocol-table retention-age curve — Theorem 2 as the /txns
// endpoint would show it, C2PC's oldest entry aging without bound while
// PrAny's table drains every round.
func (b *bench) obs() error {
	const (
		clients, txns        = 64, 2000
		rounds, txnsPerRound = 5, 8
	)
	if !b.jsonOut {
		b.header("E17: observability — span latency percentiles and PT retention ages")
	}
	seed := int64(17)
	if b.seed != 0 {
		seed = b.seed
	}
	res, err := experiments.MeasureObs(clients, txns, seed, rounds, txnsPerRound)
	if err != nil {
		return err
	}
	if b.jsonOut {
		out := struct {
			Experiment string                          `json:"experiment"`
			Seed       int64                           `json:"seed"`
			Clients    int                             `json:"clients"`
			Txns       int                             `json:"txns"`
			Rounds     int                             `json:"retention_rounds"`
			PerRound   int                             `json:"txns_per_round"`
			Latency    []experiments.ObsLatencyRow     `json:"latency"`
			Retention  []experiments.ObsRetentionRound `json:"retention"`
		}{"E17 observability", seed, clients, txns, rounds, txnsPerRound, res.Latency, res.Retention}
		enc := json.NewEncoder(b.w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(b.w, "seed: %d\n", seed)
	fmt.Fprintf(b.w, "span latencies (%d clients, %d txns, batching on):\n", clients, txns)
	fmt.Fprintf(b.w, "%-12s %8s | %10s %10s %10s %10s\n", "span", "count", "mean", "p50", "p95", "p99")
	for _, r := range res.Latency {
		fmt.Fprintf(b.w, "%-12s %8d | %10s %10s %10s %10s\n", r.Span, r.Count,
			r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
			r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	}
	fmt.Fprintln(b.w)
	fmt.Fprintf(b.w, "PT retention ages (%d commits/round, 300ms budget/round, coord+pa(PrA)+pc(PrC)):\n", txnsPerRound)
	fmt.Fprintf(b.w, "%5s | %13s %15s | %14s %16s\n",
		"round", "c2pc retained", "c2pc maxAge ms", "prany retained", "prany maxAge ms")
	for _, r := range res.Retention {
		fmt.Fprintf(b.w, "%5d | %13d %15.0f | %14d %16.0f\n",
			r.Round, r.C2PCRetained, r.C2PCMaxAgeMS, r.PrAnyRetained, r.PrAnyMaxAgeMS)
	}
	return nil
}

// recovery prints E18: recovery cost vs history length, with checkpointing
// off and on. The cluster runs terminated transactions to completion,
// strands a fixed active set in doubt, fail-stops every site and recovers
// them all; scanned is the stable records the recovery scans read (from the
// recovery metrics). Without checkpointing the scan grows with the history;
// with it on, it stays in the active-set-plus-cadence envelope however long
// the history.
func (b *bench) recovery() error {
	const (
		every  = 64
		active = 8
	)
	terminated := []int{100, 400, 1600}
	if !b.jsonOut {
		b.header("E18: recovery cost — scan size vs history, checkpointing off/on")
	}
	seed := int64(21)
	if b.seed != 0 {
		seed = b.seed
	}
	type row struct {
		CkptEvery    int     `json:"ckpt_every"`
		Terminated   int     `json:"terminated"`
		Active       int     `json:"active"`
		StableBefore int     `json:"stable_before"`
		Scanned      int     `json:"scanned"`
		Suffix       int     `json:"suffix"`
		Checkpoints  uint64  `json:"checkpoints"`
		Collected    uint64  `json:"collected"`
		ElapsedMS    float64 `json:"elapsed_ms"`
	}
	var rows []row
	for _, cadence := range []int{0, every} {
		for _, m := range terminated {
			pt, err := experiments.MeasureRecovery(cadence, m, active, seed)
			if err != nil {
				return fmt.Errorf("recovery every=%d M=%d: %w", cadence, m, err)
			}
			rows = append(rows, row{
				CkptEvery: pt.CkptEvery, Terminated: pt.Terminated, Active: pt.Active,
				StableBefore: pt.StableBefore, Scanned: pt.Scanned, Suffix: pt.Suffix,
				Checkpoints: pt.Checkpoints, Collected: pt.Collected,
				ElapsedMS: float64(pt.Elapsed.Microseconds()) / 1000,
			})
		}
	}
	if b.jsonOut {
		out := struct {
			Experiment string `json:"experiment"`
			Seed       int64  `json:"seed"`
			Rows       []row  `json:"rows"`
		}{"E18 recovery cost vs log size", seed, rows}
		enc := json.NewEncoder(b.w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(b.w, "seed: %d\n", seed)
	fmt.Fprintf(b.w, "%9s %10s %7s | %12s %8s %7s | %11s %10s %10s\n",
		"ckptEvery", "terminated", "active", "stableBefore", "scanned", "suffix", "checkpoints", "collected", "recoverMs")
	for _, r := range rows {
		fmt.Fprintf(b.w, "%9d %10d %7d | %12d %8d %7d | %11d %10d %10.2f\n",
			r.CkptEvery, r.Terminated, r.Active, r.StableBefore, r.Scanned, r.Suffix,
			r.Checkpoints, r.Collected, r.ElapsedMS)
	}
	return nil
}

// consensus prints E19: the replicated-decision cost — the same concurrent
// TCP commit workload with the decision fixed by the coordinator's local log
// alone (acceptors=0) vs one ballot-0 Paxos Commit round over three acceptor
// sites. msgs/txn and forces/txn show what the quorum round costs; the
// latency percentiles show the extra round trip before a decision is fixed.
// The matching correctness claim is `prany-check -strategy prany-paxos`.
func (b *bench) consensus() error {
	const txns = 1000
	if !b.jsonOut {
		b.header("E19: replicated decision — Paxos Commit (3 acceptors) vs single decider")
	}
	seed := int64(19)
	if b.seed != 0 {
		seed = b.seed
	}
	type row struct {
		Acceptors    int     `json:"acceptors"`
		Clients      int     `json:"clients"`
		Txns         int     `json:"txns"`
		TxnsPerSec   float64 `json:"txns_per_sec"`
		MeanLatUS    float64 `json:"mean_latency_us"`
		MsgsPerTxn   float64 `json:"msgs_per_txn"`
		ForcesPerTxn float64 `json:"forces_per_txn"`
		P50US        float64 `json:"latency_p50_us"`
		P95US        float64 `json:"latency_p95_us"`
		P99US        float64 `json:"latency_p99_us"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }
	var rows []row
	for _, clients := range []int{8, 32} {
		for _, acceptors := range []int{0, 3} {
			pt, err := experiments.MeasureConsensus(acceptors, clients, txns, seed)
			if err != nil {
				return fmt.Errorf("consensus acceptors=%d clients=%d: %w", acceptors, clients, err)
			}
			rows = append(rows, row{
				Acceptors: pt.Acceptors, Clients: pt.Clients, Txns: pt.Txns,
				TxnsPerSec: pt.TxnsPerSec, MeanLatUS: us(pt.MeanLatency),
				MsgsPerTxn: pt.MsgsPerTxn, ForcesPerTxn: pt.ForcesPerTxn,
				P50US: us(pt.LatencyP50), P95US: us(pt.LatencyP95), P99US: us(pt.LatencyP99),
			})
		}
	}
	if b.jsonOut {
		out := struct {
			Experiment string `json:"experiment"`
			Seed       int64  `json:"seed"`
			Rows       []row  `json:"rows"`
		}{"E19 replicated vs single decision cost", seed, rows}
		enc := json.NewEncoder(b.w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(b.w, "seed: %d\n", seed)
	fmt.Fprintf(b.w, "%9s %7s | %9s %12s %10s %10s | %9s %9s %9s\n",
		"acceptors", "clients", "txns/s", "meanLatency", "msgs/txn", "forces/txn", "p50", "p95", "p99")
	for _, r := range rows {
		fmt.Fprintf(b.w, "%9d %7d | %9.0f %12s %10.2f %10.2f | %9s %9s %9s\n",
			r.Acceptors, r.Clients, r.TxnsPerSec,
			time.Duration(r.MeanLatUS*1000).Round(time.Microsecond),
			r.MsgsPerTxn, r.ForcesPerTxn,
			time.Duration(r.P50US*1000).Round(time.Microsecond),
			time.Duration(r.P95US*1000).Round(time.Microsecond),
			time.Duration(r.P99US*1000).Round(time.Microsecond))
	}
	return nil
}

// readonly prints E10: the read-only optimization ablation.
func (b *bench) readonly() error {
	b.header("E10: read-only optimization ablation (3 sites, k read-only)")
	fmt.Fprintf(b.w, "%9s %10s | %10s %10s\n", "roSites", "optimized", "forces/txn", "msgs/txn")
	for _, ro := range []int{0, 1, 2, 3} {
		for _, opt := range []bool{false, true} {
			pt, err := experiments.MeasureReadOnly(ro, opt, 20)
			if err != nil {
				return err
			}
			fmt.Fprintf(b.w, "%9d %10v | %10.2f %10.2f\n", pt.ReadOnlySites, pt.Optimized, pt.ForcesPerTxn, pt.MsgsPerTxn)
		}
	}
	return nil
}
