// Command prany-chaos runs seeded chaos episodes — deterministic fault
// plans (message drop/delay/duplication, partitions, protocol-step crashes,
// WAL sync failures) over a mixed PrN/PrA/PrC cluster — and judges every
// run against the paper's operational correctness criterion (Definition 1).
//
// Usage:
//
//	prany-chaos -episodes 200 -seed 1       # 200 PrAny episodes, seeds 1..200
//	prany-chaos -strategy u2pc -episodes 50 # watch Theorem 1 happen
//	prany-chaos -e14 -episodes 40           # E14 matrix: U2PC vs C2PC vs PrAny
//	prany-chaos -e14 -episodes 40 -json     # the same, as JSON (JUDGE_chaos.json)
//	prany-chaos -byz -episodes 6            # E20 Byzantine tolerance matrix
//	prany-chaos -byz -episodes 6 -json      # the same, as JSON (JUDGE_byz.json)
//
// Every episode's faults derive from its seed alone, so a failing run
// reproduces from the printed command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"prany/internal/core"
	"prany/internal/experiments"
	"prany/internal/mcheck"
	"prany/internal/obs"
	"prany/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("prany-chaos", flag.ContinueOnError)
	fs.SetOutput(stdout)
	episodes := fs.Int("episodes", 20, "number of seeded episodes")
	seed := fs.Int64("seed", 1, "first seed; episode i uses seed+i")
	strategy := fs.String("strategy", "prany", "coordinator strategy: prany, u2pc, c2pc")
	native := fs.String("native", "prn", "native protocol for u2pc/c2pc")
	txns := fs.Int("txns", 12, "transactions per episode")
	quiesce := fs.Duration("quiesce", 8*time.Second, "convergence budget per episode")
	e14 := fs.Bool("e14", false, "run the E14 matrix (U2PC vs C2PC vs PrAny, same seeds)")
	byz := fs.Bool("byz", false, "run the E20 Byzantine tolerance matrix (seeded sweep + exhaustive cells)")
	jsonOut := fs.Bool("json", false, "with -e14/-byz: emit the matrix as JSON")
	verbose := fs.Bool("v", false, "print every episode's fault counters")
	trace := fs.Bool("trace", false, "record a per-txn trace; print its timeline for failing episodes (always with -episodes 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *e14 {
		return runMatrix(stdout, *episodes, *seed, *txns, *jsonOut)
	}
	if *byz {
		return runByz(stdout, *episodes, *seed, *txns, *jsonOut)
	}

	strat, nat, err := parseStrategy(*strategy, *native)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 2
	}
	spec := experiments.ChaosSpec{Strategy: strat, Native: nat, Txns: *txns, Quiesce: *quiesce}

	fmt.Fprintf(stdout, "chaos: %d episodes, seeds %d..%d, strategy %s, %d txns each\n",
		*episodes, *seed, *seed+int64(*episodes)-1, *strategy, *txns)
	failed := 0
	for i := 0; i < *episodes; i++ {
		s := *seed + int64(i)
		if *trace {
			spec.Obs = obs.NewRecorder(0)
		}
		ep, err := experiments.RunChaosEpisode(s, spec)
		if err != nil {
			fmt.Fprintf(stdout, "seed %d: %v\n", s, err)
			return 1
		}
		verdict := "ok"
		if v := ep.Report.Violations(); v > 0 {
			verdict = fmt.Sprintf("FAIL (%d violations)", v)
			failed++
		}
		fmt.Fprintf(stdout, "seed %-6d commits=%-3d aborts=%-3d errors=%-3d crashes=%-2d %s\n",
			s, ep.Commits, ep.Aborts, ep.Errors, ep.Faults.Crashes, verdict)
		if *verbose {
			fmt.Fprintf(stdout, "  faults: drop=%d delay=%d dup=%d partition=%d walfail=%d\n",
				ep.Faults.Dropped, ep.Faults.Delayed, ep.Faults.Duplicated,
				ep.Faults.Partitioned, ep.Faults.WALFails)
		}
		if verdict != "ok" {
			for _, line := range strings.Split(ep.Report.Summary(), "\n") {
				fmt.Fprintf(stdout, "  %s\n", line)
			}
			fmt.Fprintf(stdout, "  repro: go run ./cmd/prany-chaos -episodes 1 -trace -seed %d -strategy %s -native %s -txns %d\n",
				s, *strategy, *native, *txns)
		}
		if *trace && (verdict != "ok" || *episodes == 1) {
			fmt.Fprintf(stdout, "timeline (seed %d):\n", s)
			for _, line := range strings.Split(strings.TrimRight(spec.Obs.Timeline(), "\n"), "\n") {
				fmt.Fprintf(stdout, "  %s\n", line)
			}
		}
	}
	fmt.Fprintf(stdout, "\n%d/%d episodes operationally correct\n", *episodes-failed, *episodes)
	if failed > 0 {
		return 1
	}
	return 0
}

// runMatrix prints (or emits as JSON) the E14 table: the same seeded fault
// plans under U2PC, C2PC and PrAny, with each strategy's measured failure
// counts — Theorems 1 and 2 as rates instead of single scripted schedules.
func runMatrix(stdout io.Writer, episodes int, seed int64, txns int, jsonOut bool) int {
	seeds := make([]int64, episodes)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	// C2PC never quiesces, so the matrix caps each episode's convergence
	// budget; PrAny converges well inside it.
	rows, err := experiments.ChaosMatrix(seeds, txns, 1500*time.Millisecond)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	if jsonOut {
		out := struct {
			Experiment string                       `json:"experiment"`
			SeedStart  int64                        `json:"seed_start"`
			Episodes   int                          `json:"episodes"`
			Txns       int                          `json:"txns_per_episode"`
			Rows       []experiments.ChaosMatrixRow `json:"rows"`
		}{"E14 chaos matrix", seed, episodes, txns, rows}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stdout, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "E14: chaos matrix — %d episodes each, seeds %d..%d, %d txns/episode\n",
		episodes, seed, seed+int64(episodes)-1, txns)
	fmt.Fprintf(stdout, "%-12s %8s %8s %8s %8s %8s | %9s %9s %9s\n",
		"strategy", "commits", "aborts", "errors", "crashes", "dropped",
		"atomicity", "retention", "opcheck")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-12s %8d %8d %8d %8d %8d | %9d %9d %9d\n",
			r.Strategy, r.Commits, r.Aborts, r.Errors, r.Crashes, r.Dropped,
			r.AtomicityViolations, r.RetentionLeaks, r.OpcheckViolations)
	}
	return 0
}

// runByz prints (or emits as JSON) the E20 Byzantine tolerance matrix: the
// seeded sweep — each strategy × each adversary behavior at the Byzantine
// participant over the same seeds — plus the bounded-exhaustive mcheck
// cells with their minimal-lie counterexamples, and the combined verdict
// (PrAny keeps every honest site whole under any lying participant).
func runByz(stdout io.Writer, episodes int, seed int64, txns int, jsonOut bool) int {
	seeds := make([]int64, episodes)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	// Same reasoning as E14: C2PC cells never quiesce, so the convergence
	// budget per episode is capped.
	rows, err := experiments.ByzSeededMatrix(seeds, txns, 1200*time.Millisecond)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	cells := experiments.ByzMcheck()
	verdictErr := experiments.ByzVerdict(rows, cells)

	if jsonOut {
		out := struct {
			Experiment  string               `json:"experiment"`
			SeedStart   int64                `json:"seed_start"`
			Episodes    int                  `json:"episodes"`
			Txns        int                  `json:"txns_per_episode"`
			ByzSite     string               `json:"byz_site"`
			SeededRows  []experiments.ByzRow `json:"seeded_rows"`
			McheckCells []*mcheck.Result     `json:"mcheck_cells"`
			Verdict     string               `json:"verdict"`
		}{"E20 Byzantine tolerance matrix", seed, episodes, txns,
			string(experiments.ByzSite), rows, cells, "pass"}
		if verdictErr != nil {
			out.Verdict = verdictErr.Error()
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stdout, err)
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "E20: Byzantine tolerance matrix — %d episodes/cell, seeds %d..%d, %d txns/episode, byz site %s\n",
			episodes, seed, seed+int64(episodes)-1, txns, experiments.ByzSite)
		fmt.Fprintf(stdout, "%-12s %-4s %8s %8s %8s %8s | %7s %7s %10s\n",
			"strategy", "byz", "commits", "aborts", "errors", "forged",
			"honest", "spread", "contained")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-12s %-4s %8d %8d %8d %8d | %7d %7d %10d\n",
				r.Strategy, r.Behavior, r.Commits, r.Aborts, r.Errors, r.Forged,
				r.Honest, r.Spread, r.Contained)
		}
		fmt.Fprintf(stdout, "\nexhaustive cells (t1, skip-0 plans):\n")
		fmt.Fprintf(stdout, "%-28s %9s %10s %7s %7s %10s\n",
			"config", "schedules", "violating", "honest", "spread", "contained")
		for _, c := range cells {
			fmt.Fprintf(stdout, "%-28s %9d %10d %7d %7d %10d\n",
				c.Label, c.Schedules, c.Violating, c.HonestViolating, c.SpreadViolating, c.ContainedViolating)
			for _, cex := range c.Counterexamples {
				fmt.Fprintf(stdout, "  %s counterexample: %s\n", cex.Kind, cex.Schedule)
				break // one per cell keeps the table readable; JSON carries them all
			}
		}
		if verdictErr != nil {
			fmt.Fprintf(stdout, "\nFAIL: %v\n", verdictErr)
		} else {
			fmt.Fprintf(stdout, "\npass: PrAny honest sites clean under every lying participant; straw-man defeats and the lying-decider boundary demonstrated\n")
		}
	}
	if verdictErr != nil {
		return 1
	}
	return 0
}

func parseStrategy(s, native string) (core.Strategy, wire.Protocol, error) {
	nat, err := wire.ParseProtocol(native)
	if err != nil {
		return 0, 0, err
	}
	switch strings.ToLower(s) {
	case "prany":
		return core.StrategyPrAny, nat, nil
	case "u2pc":
		return core.StrategyU2PC, nat, nil
	case "c2pc":
		return core.StrategyC2PC, nat, nil
	}
	return 0, 0, fmt.Errorf("unknown strategy %q (want prany, u2pc or c2pc)", s)
}
