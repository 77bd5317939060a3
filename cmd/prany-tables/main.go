// Command prany-tables prints the paper's tables and the judge matrices
// recorded in EXPERIMENTS.md, all in logical units (forced writes, log
// records, messages, violations — never wall-clock time): the per-protocol
// cost profiles of Figures 1-4 (measured against the analytic model), the
// Theorem 1 violation table, the Theorem 2 retention growth curve, the
// Theorem 3 fault sweep, the who-wins cost matrix, the read-only
// optimization ablation, the IYV and coordinator-log extensions, a compact
// chaos matrix and the recovery scan table. Performance numbers come from
// `bash bench/run.sh` alone.
//
// Usage:
//
//	prany-tables               # everything
//	prany-tables -run costs    # one section: costs, theorem1, theorem2,
//	                           # sweep, whowins, readonly, iyv, cl, chaos,
//	                           # recovery
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"prany/internal/core"
	"prany/internal/experiments"
	"prany/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// tables carries the output sink and the seed override so every section is
// a method writing to the same place — testable without touching process
// globals.
type tables struct {
	w io.Writer
	// seed overrides every section's random seed when nonzero, so any run
	// reproduces from its printed seed. Zero keeps each section's
	// historical default (sweep 7, whowins 99, chaos 1, recovery 21),
	// preserving the committed EXPERIMENTS.md numbers.
	seed int64
}

var sectionOrder = []string{"costs", "theorem1", "theorem2", "sweep", "whowins", "readonly", "iyv", "cl", "chaos", "recovery"}

func run(args []string, stdout io.Writer) int {
	t := &tables{w: stdout}
	sections := map[string]func() error{
		"costs":    t.costs,
		"theorem1": t.theorem1,
		"theorem2": t.theorem2,
		"sweep":    t.sweep,
		"whowins":  t.whowins,
		"readonly": t.readonly,
		"iyv":      t.iyv,
		"cl":       t.cl,
		"chaos":    t.chaosMatrix,
		"recovery": t.recovery,
	}

	fs := flag.NewFlagSet("prany-tables", flag.ContinueOnError)
	fs.SetOutput(stdout)
	which := fs.String("run", "all", "which section to run: all, "+strings.Join(sectionOrder, ", "))
	seed := fs.Int64("seed", 0, "override every section's random seed (0 = per-section defaults)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	t.seed = *seed

	if *which == "all" {
		for _, name := range sectionOrder {
			if err := sections[name](); err != nil {
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
	if err := sec(); err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	return 0
}

func (t *tables) header(title string) {
	fmt.Fprintln(t.w, title)
	fmt.Fprintln(t.w, strings.Repeat("-", len(title)))
}

// sectionSeed resolves one section's seed and prints it, so every table's
// header names the seed that regenerates it.
func (t *tables) sectionSeed(def int64) int64 {
	seed := def
	if t.seed != 0 {
		seed = t.seed
	}
	fmt.Fprintf(t.w, "seed: %d\n", seed)
	return seed
}

// costs prints E1-E4: measured cost profiles vs the analytic model.
func (t *tables) costs() error {
	t.header("E1-E4: per-transaction cost profiles (Figures 2, 3, 4a/b, 1a/b)")
	fmt.Fprintf(t.w, "%-18s %-7s %6s | %9s %9s %9s %9s %6s %5s | %s\n",
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
			fmt.Fprintf(t.w, "%-18s %-7s %6d | %9d %9d %9d %9d %6d %5d | %s\n",
				got.Label, outcome, got.N, got.CoordForces, got.CoordRecords,
				got.PartForces, got.PartRecords, got.Messages, got.Acks, verdict)
		}
	}
	return nil
}

// theorem1 prints E5: the adversarial schedules of Theorem 1.
func (t *tables) theorem1() error {
	t.header("E5: Theorem 1 — U2PC violates atomicity, PrAny does not")
	rows, err := experiments.Theorem1()
	if err != nil {
		return err
	}
	fmt.Fprintf(t.w, "%-12s %-20s %11s %9s\n", "strategy", "schedule", "violations", "diverged")
	for _, r := range rows {
		fmt.Fprintf(t.w, "%-12s %-20s %11d %9v\n", r.Strategy, r.Schedule, r.Violations, r.Diverged)
	}
	return nil
}

// theorem2 prints E6: retention growth under C2PC vs PrAny.
func (t *tables) theorem2() error {
	t.header("E6: Theorem 2 — C2PC retention grows without bound, PrAny drains")
	fmt.Fprintf(t.w, "%-12s %6s %9s %13s\n", "strategy", "txns", "retained", "pinnedRecords")
	for _, txns := range []int{10, 50, 100, 200} {
		for _, s := range []struct {
			strategy core.Strategy
			native   wire.Protocol
		}{{core.StrategyC2PC, wire.PrN}, {core.StrategyPrAny, wire.PrN}} {
			pt, err := experiments.Theorem2(s.strategy, s.native, txns)
			if err != nil {
				return err
			}
			fmt.Fprintf(t.w, "%-12s %6d %9d %13d\n", pt.Strategy, pt.Txns, pt.Retained, pt.StableRecords)
		}
	}
	return nil
}

// sweep prints E7: Monte-Carlo fault injection under PrAny.
func (t *tables) sweep() error {
	t.header("E7: Theorem 3 — PrAny under omission faults and crashes")
	seed := t.sectionSeed(7)
	fmt.Fprintf(t.w, "%6s %6s %8s %8s %8s %11s %9s %9s\n",
		"drop%", "txns", "commits", "aborts", "crashes", "violations", "quiesced", "leftover")
	for _, p := range []float64{0, 0.05, 0.10, 0.20} {
		res, err := experiments.FaultSweep(core.StrategyPrAny, wire.PrN, p, 40, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(t.w, "%6.0f %6d %8d %8d %8d %11d %9v %9d\n",
			p*100, res.Txns, res.Commits, res.Aborts, res.Crashes,
			res.Violations, res.Quiesced, res.Leftover)
	}
	return nil
}

// whowins prints E8: the who-wins cost matrix across commit ratios.
func (t *tables) whowins() error {
	t.header("E8: who wins — per-txn forced writes and messages across commit ratios")
	seed := t.sectionSeed(99)
	fmt.Fprintf(t.w, "%-18s %8s | %10s %10s\n", "protocol", "commit%", "forces/txn", "msgs/txn")
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
			fmt.Fprintf(t.w, "%-18s %8.0f | %10.2f %10.2f\n",
				pt.Label, ratio*100, pt.ForcesPerTxn, pt.MsgsPerTxn)
		}
		fmt.Fprintln(t.w)
	}
	return nil
}

// iyv prints E11: the implicit yes-vote extension — the paper conclusion's
// future-work protocol integrated under the same criterion.
func (t *tables) iyv() error {
	t.header("E11: implicit yes-vote (one-phase) extension, commit costs")
	fmt.Fprintf(t.w, "%-18s %6s | %9s %9s %9s %9s %6s %5s | %s\n",
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
		fmt.Fprintf(t.w, "%-18s %6d | %9d %9d %9d %9d %6d %5d | %s\n",
			got.Label, got.N, got.CoordForces, got.CoordRecords,
			got.PartForces, got.PartRecords, got.Messages, got.Acks, verdict)
	}
	fmt.Fprintln(t.w)
	fmt.Fprintln(t.w, "reference: PrA homogeneous commits (two-phase baseline)")
	for _, n := range []int{2, 4, 8} {
		got, err := experiments.MeasureCost(experiments.Homogeneous(wire.PrA, n), wire.Commit)
		if err != nil {
			return err
		}
		fmt.Fprintf(t.w, "%-18s %6d | %9d %9d %9d %9d %6d %5d |\n",
			got.Label, got.N, got.CoordForces, got.CoordRecords,
			got.PartForces, got.PartRecords, got.Messages, got.Acks)
	}
	return nil
}

// cl prints E12: the coordinator-log extension — participants log nothing,
// the coordinator's log is the system's only log.
func (t *tables) cl() error {
	t.header("E12: coordinator log (participants log nothing), commit costs")
	fmt.Fprintf(t.w, "%-22s %6s | %9s %9s %9s %9s %6s %5s | %s\n",
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
		fmt.Fprintf(t.w, "%-22s %6d | %9d %9d %9d %9d %6d %5d | %s\n",
			got.Label, got.N, got.CoordForces, got.CoordRecords,
			got.PartForces, got.PartRecords, got.Messages, got.Acks, verdict)
	}
	fmt.Fprintln(t.w)
	fmt.Fprintln(t.w, "note: partF/partRec are 0 in every CL row — the participants log nothing;")
	fmt.Fprintln(t.w, "the coordinator pays one forced remote-writes record per shipped vote.")
	return nil
}

// chaosMatrix prints a compact E14: seeded chaos episodes under U2PC, C2PC
// and PrAny with identical fault plans per seed. The full-size matrix lives
// in JUDGE_chaos.json via `prany-chaos -e14 -json`.
func (t *tables) chaosMatrix() error {
	t.header("E14: chaos matrix — operational correctness under seeded fault plans")
	seed := t.sectionSeed(1)
	const episodes, txns = 12, 12
	seeds := make([]int64, episodes)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	rows, err := experiments.ChaosMatrix(seeds, txns, 1500*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Fprintf(t.w, "%-12s %8s %8s %8s %8s | %9s %9s %9s\n",
		"strategy", "commits", "aborts", "errors", "crashes",
		"atomicity", "retention", "opcheck")
	for _, r := range rows {
		fmt.Fprintf(t.w, "%-12s %8d %8d %8d %8d | %9d %9d %9d\n",
			r.Strategy, r.Commits, r.Aborts, r.Errors, r.Crashes,
			r.AtomicityViolations, r.RetentionLeaks, r.OpcheckViolations)
	}
	return nil
}

// recovery prints E18: the recovery scan vs history length, with
// checkpointing off and on. The cluster runs terminated transactions to
// completion, strands a fixed active set in doubt, fail-stops every site and
// recovers them all; scanned is the stable records the recovery scans read
// (from the recovery metrics). Without checkpointing the scan grows with the
// history; with it on, it stays in the active-set-plus-cadence envelope
// however long the history.
func (t *tables) recovery() error {
	const (
		every  = 64
		active = 8
	)
	t.header("E18: recovery scan — records read vs history, checkpointing off/on")
	seed := t.sectionSeed(21)
	fmt.Fprintf(t.w, "%9s %10s %7s | %12s %8s %7s | %11s %10s\n",
		"ckptEvery", "terminated", "active", "stableBefore", "scanned", "suffix", "checkpoints", "collected")
	for _, cadence := range []int{0, every} {
		for _, m := range []int{100, 400, 1600} {
			pt, err := experiments.MeasureRecovery(cadence, m, active, seed)
			if err != nil {
				return fmt.Errorf("recovery every=%d M=%d: %w", cadence, m, err)
			}
			fmt.Fprintf(t.w, "%9d %10d %7d | %12d %8d %7d | %11d %10d\n",
				pt.CkptEvery, pt.Terminated, pt.Active, pt.StableBefore, pt.Scanned, pt.Suffix,
				pt.Checkpoints, pt.Collected)
		}
	}
	return nil
}

// readonly prints E10: the read-only optimization ablation.
func (t *tables) readonly() error {
	t.header("E10: read-only optimization ablation (3 sites, k read-only)")
	fmt.Fprintf(t.w, "%9s %10s | %10s %10s\n", "roSites", "optimized", "forces/txn", "msgs/txn")
	for _, ro := range []int{0, 1, 2, 3} {
		for _, opt := range []bool{false, true} {
			pt, err := experiments.MeasureReadOnly(ro, opt, 20)
			if err != nil {
				return err
			}
			fmt.Fprintf(t.w, "%9d %10v | %10.2f %10.2f\n", pt.ReadOnlySites, pt.Optimized, pt.ForcesPerTxn, pt.MsgsPerTxn)
		}
	}
	return nil
}
