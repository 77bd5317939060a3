// Command prany-check is the bounded-exhaustive model checker: it
// enumerates every crash/ordering schedule of a small mixed-protocol
// cluster — not seeded samples like prany-chaos — and judges each maximal
// schedule against the paper's operational correctness criterion
// (Definition 1). The default run is E15: the exhaustive re-derivation of
// Theorems 1 and 2, with machine-found minimal counterexamples for the
// straw men and a universally-quantified clean sweep for PrAny.
//
// Usage:
//
//	prany-check                      # E15 matrix: U2PC vs C2PC vs PrAny
//	prany-check -json                # the same, as JSON (JUDGE_mcheck.json)
//	prany-check -strategy u2pc       # one strategy; exit 1 on any violation
//	prany-check -strategy u2pc -stop # stop at the first counterexample
//	prany-check -strategy prany-paxos # E19: replicated vs single decision under
//	                                  # permanent coordinator death
//	prany-check -strategy prany-byz   # E20: per-behavior Byzantine cells; exit 1
//	                                  # on any honest-site violation
//	prany-check -replay 'u2pc/PrN|pa=PrA,pc=PrC|t2|crash=coord:af:commit.c:0|vt'
//
// Every counterexample prints as a schedule string; -replay re-executes
// one deterministically and prints the judge's verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prany/internal/chaos"
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
	fs := flag.NewFlagSet("prany-check", flag.ContinueOnError)
	fs.SetOutput(stdout)
	strategy := fs.String("strategy", "", "check one strategy (prany, u2pc, c2pc); empty runs the E15 matrix")
	native := fs.String("native", "prn", "native protocol for u2pc/c2pc")
	txns := fs.Int("txns", 2, "transactions per episode")
	maxSkip := fs.Int("maxskip", 0, "crash-point skip bound (0 = default 1, negative = skip-0 plans only)")
	stop := fs.Bool("stop", false, "stop at the first counterexample")
	jsonOut := fs.Bool("json", false, "emit results as JSON")
	replay := fs.String("replay", "", "replay one schedule string and print its verdict")
	timeline := fs.Bool("timeline", false, "with -replay: print the per-txn event timeline of the schedule")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *replay != "" {
		return runReplay(*replay, *timeline, stdout)
	}
	if *strategy == "prany-paxos" {
		return runPaxos(*jsonOut, stdout)
	}
	if base, ok := strings.CutSuffix(*strategy, "-byz"); ok && base != "" {
		return runByz(base, *native, *jsonOut, stdout)
	}
	if *strategy == "" {
		return runMatrix(*txns, *maxSkip, *jsonOut, stdout)
	}
	return runOne(*strategy, *native, *txns, *maxSkip, *stop, *jsonOut, stdout)
}

// runPaxos is the E19 verdict: under permanent coordinator death (+down),
// the replicated decider (3 acceptors) must sweep clean with zero blocked
// terminal states, while the very same crash budget against the plain
// single-decider coordinator must exhibit the blocking state. Exit 0 iff
// both halves hold.
func runPaxos(jsonOut bool, stdout io.Writer) int {
	// One transaction at skip-0 keeps the acceptor-interleaving space
	// exhaustively explorable; the budget still contains every crash
	// archetype, including the vote-forward loss and acceptor accept-force
	// crashes with recovery.
	paxos := mcheck.Exhaust(mcheck.Config{
		Strategy: core.StrategyPrAny, Acceptors: 3, CoordDown: true, Txns: 1, MaxSkip: -1,
	})
	single := mcheck.Exhaust(mcheck.Config{
		Strategy: core.StrategyPrAny, CoordDown: true, Txns: 1, MaxSkip: -1,
	})

	verdict := ""
	if !paxos.Clean() {
		verdict = fmt.Sprintf("replicated decider not clean: %d violating, %d blocked", paxos.Violating, paxos.Blocked)
	} else if single.Blocked == 0 {
		verdict = "single decider did not block under permanent coordinator death"
	}

	if jsonOut {
		out := struct {
			Experiment string           `json:"experiment"`
			Cluster    string           `json:"cluster"`
			Rows       []*mcheck.Result `json:"rows"`
			Verdict    string           `json:"verdict"`
		}{"E19 replicated vs single decision under permanent coordinator death",
			"coord + pa=PrA + pc=PrC (+ a1..a3)", []*mcheck.Result{paxos, single}, "pass"}
		if verdict != "" {
			out.Verdict = verdict
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stdout, "encoding: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "E19: permanent coordinator death — replicated (Paxos Commit, 3 acceptors) vs single decision\n")
		fmt.Fprintf(stdout, "%-22s %6s %9s %8s %10s %8s\n",
			"config", "plans", "schedules", "explored", "violating", "blocked")
		for _, r := range []*mcheck.Result{paxos, single} {
			fmt.Fprintf(stdout, "%-22s %6d %9d %8d %10d %8d\n",
				r.Label, r.Plans, r.Schedules, r.Explored, r.Violating, r.Blocked)
		}
		printFindings(stdout, single)
		if verdict != "" {
			fmt.Fprintf(stdout, "\nFAIL: %s\n", verdict)
		} else {
			fmt.Fprintf(stdout, "\npass: replicated decider exhaustively clean and non-blocking; single decider blocks in %d schedules\n", single.Blocked)
		}
	}
	if verdict != "" {
		return 1
	}
	return 0
}

// runByz checks one strategy against every adversary behavior at the
// Byzantine participant: one exhaustive cell (1 txn, skip-0 plans) per
// behavior, each judged with attribution. Exit 1 on any honest-site
// violation, episode error or truncation — and, for PrAny, on any
// violation spreading past the lying site. Straw-man defeats (contained
// damage, retention collapse) are reported, not failed: they are the
// experiment's expected shape.
func runByz(base, native string, jsonOut bool, stdout io.Writer) int {
	strat, nat, err := parseStrategy(base, native)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 2
	}
	var results []*mcheck.Result
	for _, b := range []chaos.Behavior{chaos.Equivocate, chaos.LieInquiry, chaos.SpuriousAck, chaos.VoteFlip} {
		results = append(results, mcheck.Exhaust(mcheck.Config{
			Strategy: strat, Native: nat, Txns: 1, MaxSkip: -1,
			Adversary: &chaos.Adversary{Site: experiments.ByzSite, Behaviors: []chaos.Behavior{b}},
		}))
	}

	verdict := ""
	for _, r := range results {
		switch {
		case len(r.Errors) > 0:
			verdict = fmt.Sprintf("%s: %d episode errors (first: %s)", r.Label, len(r.Errors), r.Errors[0])
		case r.Truncated:
			verdict = fmt.Sprintf("%s: exploration truncated — not exhaustive", r.Label)
		case r.HonestViolating > 0:
			verdict = fmt.Sprintf("%s: %d schedules with honest-site untainted violations — repo bug", r.Label, r.HonestViolating)
		case strat == core.StrategyPrAny && r.SpreadViolating > 0:
			verdict = fmt.Sprintf("%s: %d schedules spread to honest sites", r.Label, r.SpreadViolating)
		}
		if verdict != "" {
			break
		}
	}

	if jsonOut {
		out := struct {
			Experiment string           `json:"experiment"`
			Cluster    string           `json:"cluster"`
			Rows       []*mcheck.Result `json:"rows"`
			Verdict    string           `json:"verdict"`
		}{"E20 Byzantine cells: " + base, "coord + pa=PrA + pc=PrC, byz=" + string(experiments.ByzSite),
			results, "pass"}
		if verdict != "" {
			out.Verdict = verdict
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stdout, "encoding: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "E20: %s under one Byzantine participant (%s), per behavior — t1, skip-0 plans\n",
			base, experiments.ByzSite)
		fmt.Fprintf(stdout, "%-24s %9s %10s %7s %7s %10s\n",
			"config", "schedules", "violating", "honest", "spread", "contained")
		for _, r := range results {
			fmt.Fprintf(stdout, "%-24s %9d %10d %7d %7d %10d\n",
				r.Label, r.Schedules, r.Violating, r.HonestViolating, r.SpreadViolating, r.ContainedViolating)
		}
		for _, r := range results {
			printFindings(stdout, r)
		}
		if verdict != "" {
			fmt.Fprintf(stdout, "\nFAIL: %s\n", verdict)
		} else {
			fmt.Fprintf(stdout, "\npass: no honest-site violation in any schedule of any behavior\n")
		}
	}
	if verdict != "" {
		return 1
	}
	return 0
}

// runReplay re-executes one counterexample (or any hand-written schedule)
// and prints the judge's full verdict. Exit 0 means the schedule judged
// clean, 1 that it violated Definition 1, 2 that it failed to replay.
func runReplay(schedule string, timeline bool, stdout io.Writer) int {
	sched, err := mcheck.ParseSchedule(schedule)
	if err != nil {
		fmt.Fprintf(stdout, "replay: %v\n", err)
		return 2
	}
	var rec *obs.Recorder
	if timeline {
		rec = obs.NewRecorder(0)
	}
	rep, err := mcheck.ReplayTraced(sched, rec)
	if err != nil {
		fmt.Fprintf(stdout, "replay: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "replay: %s\n", schedule)
	fmt.Fprintln(stdout, rep.Summary())
	if timeline {
		fmt.Fprintln(stdout, "timeline:")
		for _, line := range strings.Split(strings.TrimRight(rec.Timeline(), "\n"), "\n") {
			fmt.Fprintf(stdout, "  %s\n", line)
		}
	}
	if rep.OK() {
		return 0
	}
	return 1
}

// runMatrix is E15: all three strategies over the same cluster and
// budget; exit 0 iff the theorem pattern holds (PrAny clean, each straw
// man showing its theorem's counterexample).
func runMatrix(txns, maxSkip int, jsonOut bool, stdout io.Writer) int {
	rows := experiments.McheckMatrix(txns, maxSkip)
	verdictErr := experiments.McheckVerdict(rows)

	if jsonOut {
		out := struct {
			Experiment string           `json:"experiment"`
			Txns       int              `json:"txns_per_episode"`
			Cluster    string           `json:"cluster"`
			Rows       []*mcheck.Result `json:"rows"`
			Verdict    string           `json:"verdict"`
		}{"E15 exhaustive theorem matrix", txns, "coord + pa=PrA + pc=PrC", rows, "pass"}
		if verdictErr != nil {
			out.Verdict = verdictErr.Error()
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stdout, "encoding: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "E15: bounded-exhaustive theorem matrix — %d txns, cluster coord+pa(PrA)+pc(PrC)\n", txns)
		fmt.Fprintf(stdout, "%-10s %6s %9s %8s %7s %10s %10s %8s\n",
			"strategy", "plans", "schedules", "explored", "deduped", "ample", "violating", "elapsed")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-10s %6d %9d %8d %7d %10d %10d %6dms\n",
				r.Label, r.Plans, r.Schedules, r.Explored, r.Deduped, r.AmpleSteps, r.Violating, r.ElapsedMS)
		}
		for _, r := range rows {
			printFindings(stdout, r)
		}
		if verdictErr != nil {
			fmt.Fprintf(stdout, "\nFAIL: %v\n", verdictErr)
		} else {
			fmt.Fprintf(stdout, "\npass: PrAny exhaustively clean; both straw men yield machine-found counterexamples\n")
		}
	}
	if verdictErr != nil {
		return 1
	}
	return 0
}

// runOne checks a single strategy; exit 1 on any violation, truncation or
// episode error — the "is this configuration correct" mode.
func runOne(strategy, native string, txns, maxSkip int, stop, jsonOut bool, stdout io.Writer) int {
	strat, nat, err := parseStrategy(strategy, native)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 2
	}
	res := mcheck.Exhaust(mcheck.Config{
		Strategy: strat, Native: nat, Txns: txns, MaxSkip: maxSkip, StopAtFirst: stop,
	})
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(stdout, "encoding: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "%s: %d plans, %d schedules judged (%d states explored, %d deduped, %d ample) in %dms\n",
			res.Label, res.Plans, res.Schedules, res.Explored, res.Deduped, res.AmpleSteps, res.ElapsedMS)
		printFindings(stdout, res)
		if res.Clean() {
			fmt.Fprintf(stdout, "ok: no Definition-1 violation in any schedule\n")
		} else {
			fmt.Fprintf(stdout, "FAIL: %d violating schedules of %d\n", res.Violating, res.Schedules)
		}
	}
	if res.Clean() {
		return 0
	}
	return 1
}

// printFindings renders a result's counterexamples, errors and
// truncation. Counterexamples beyond the stored cap are counted, never
// silently dropped.
func printFindings(w io.Writer, r *mcheck.Result) {
	for _, cex := range r.Counterexamples {
		fmt.Fprintf(w, "\n%s %s counterexample:\n  %s\n", r.Label, cex.Kind, cex.Schedule)
		for _, line := range strings.Split(cex.Summary, "\n") {
			fmt.Fprintf(w, "  %s\n", line)
		}
		fmt.Fprintf(w, "  replay: go run ./cmd/prany-check -replay '%s'\n", cex.Schedule)
	}
	if extra := r.Violating - len(r.Counterexamples); extra > 0 {
		fmt.Fprintf(w, "  (+%d more violating schedules not stored)\n", extra)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s episode error: %s\n", r.Label, e)
	}
	if r.Truncated {
		fmt.Fprintf(w, "%s: TRUNCATED at the state cap — this sweep is not exhaustive\n", r.Label)
	}
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
