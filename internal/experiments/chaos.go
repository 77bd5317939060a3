package experiments

import (
	"fmt"
	"time"

	"prany/internal/chaos"
	"prany/internal/core"
	"prany/internal/obs"
	"prany/internal/opcheck"
	"prany/internal/sim"
	"prany/internal/wire"
	"prany/internal/workload"
)

// ChaosSpec parameterizes one chaos episode (E14). Zero values take the
// defaults noted per field.
type ChaosSpec struct {
	Strategy core.Strategy
	Native   wire.Protocol // U2PC/C2PC native protocol; ignored by PrAny
	// Txns is the workload length. Zero means 12.
	Txns int
	// Quiesce bounds the final convergence drive. Zero means 8s. Strategies
	// that cannot quiesce (C2PC) burn the whole budget, so matrix sweeps
	// pass something short.
	Quiesce time.Duration
	// Plan overrides the seed-derived fault plan (nil derives one from the
	// episode seed with the default bounds below).
	Plan *chaos.Plan
	// Adversary makes one site Byzantine for the episode (merged into the
	// plan after derivation, so the same seed keeps the same honest faults).
	Adversary *chaos.Adversary
	// CheckpointEvery enables automatic log checkpointing on every site.
	// Zero keeps it off — the committed E14 numbers run without it.
	CheckpointEvery int
	// Obs, when set, records per-transaction trace events and injected
	// faults for the episode, so a failing seed's timeline can be printed
	// (prany-chaos -trace).
	Obs *obs.Recorder
}

// chaosPlanSpec is the default fault envelope of an episode: every
// probability is drawn up to these caps from the episode seed.
func chaosPlanSpec(txns int) chaos.PlanSpec {
	return chaos.PlanSpec{
		Coordinator:    sim.CoordID,
		Participants:   []wire.SiteID{"pn", "pa", "pc"},
		Txns:           txns,
		DropMax:        0.25,
		DelayMax:       0.25,
		DupMax:         0.15,
		MaxDelay:       5 * time.Millisecond,
		WALFailMax:     0.10,
		MaxCrashPoints: 3,
		MaxReboots:     2,
		MaxPartitions:  2,
	}
}

// ChaosEpisode is one seeded episode's outcome.
type ChaosEpisode struct {
	Seed     int64
	Strategy string
	Commits  int
	Aborts   int
	Errors   int
	// Faults are the injections that actually fired.
	Faults chaos.Counters
	// Report is the operational-correctness verdict.
	Report *opcheck.Report
	// Attribution partitions the report's per-site violations by blame when
	// the episode ran with a Byzantine site (nil for honest episodes).
	Attribution *opcheck.Attribution
}

// AtomicityViolations counts the clause-1 breaches (Theorem 1's failure
// mode) the episode produced.
func (e ChaosEpisode) AtomicityViolations() int {
	return len(e.Report.Atomicity) + len(e.Report.SafeState)
}

// RetentionLeaks counts the terminated transactions the coordinator could
// never forget (Theorem 2's failure mode).
func (e ChaosEpisode) RetentionLeaks() int { return len(e.Report.Retained) }

// RunChaosEpisode executes one seeded chaos episode: it derives a fault
// plan from the seed, runs a mixed PrN/PrA/PrC workload under it while the
// engine crashes, partitions and corrupts per plan (crashed sites are
// recovered between transactions — fail-stop sites restart), then lifts
// every fault, recovers everything, and judges the run with opcheck.
func RunChaosEpisode(seed int64, spec ChaosSpec) (ChaosEpisode, error) {
	if spec.Txns <= 0 {
		spec.Txns = 12
	}
	if spec.Quiesce <= 0 {
		spec.Quiesce = 8 * time.Second
	}
	label := "PrAny"
	if spec.Strategy != core.StrategyPrAny {
		label = fmt.Sprintf("%s(%s)", spec.Strategy, spec.Native)
	}
	ep := ChaosEpisode{Seed: seed, Strategy: label}

	plan := chaos.RandomPlan(seed, chaosPlanSpec(spec.Txns))
	if spec.Plan != nil {
		plan = *spec.Plan
	}
	if spec.Adversary != nil {
		plan.Adversary = spec.Adversary
	}
	eng := chaos.NewEngine(plan)
	cluster, err := sim.New(sim.Spec{
		Strategy: spec.Strategy,
		Native:   spec.Native,
		Participants: []sim.PartSpec{
			{ID: "pn", Proto: wire.PrN}, {ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC},
		},
		VoteTimeout:     60 * time.Millisecond,
		ExecTimeout:     400 * time.Millisecond,
		CheckpointEvery: spec.CheckpointEvery,
		Seed:            seed,
		Chaos:           eng,
		Obs:             spec.Obs,
	})
	if err != nil {
		return ep, err
	}
	defer cluster.Close()

	// recoverAll restarts every fail-stopped site. TakeCrashed drains the
	// engine's down set; the Crashed() sweep also catches crashes that
	// landed between Settle and here (a delayed message can still trip an
	// OnDeliver crash point), with ClearDown keeping the wrapped store from
	// refusing the restarted site's writes.
	sites := append([]wire.SiteID{sim.CoordID}, cluster.PartIDs()...)
	recoverAll := func() error {
		eng.Settle()
		eng.TakeCrashed()
		for _, id := range sites {
			if s := cluster.Site(id); s.Crashed() {
				eng.ClearDown(id)
				if err := s.Recover(); err != nil {
					return fmt.Errorf("recover %s: %w", id, err)
				}
			}
		}
		return nil
	}

	plans := workload.Generate(workload.Spec{
		Txns:           spec.Txns,
		OpsPerSite:     2,
		CommitFraction: 0.8,
		KeySpace:       64,
		Seed:           seed,
	}, cluster.PartIDs())

	for i, p := range plans {
		for _, pt := range plan.Partitions {
			if pt.FromTxn == i {
				eng.SetPartition(pt.A, pt.B, true)
			}
			if pt.ToTxn == i {
				eng.SetPartition(pt.A, pt.B, false)
			}
		}
		for _, rb := range plan.Reboots {
			if rb.AtTxn != i {
				continue
			}
			if s := cluster.Site(rb.Site); s != nil && !s.Crashed() {
				s.Crash()
			}
		}
		if err := recoverAll(); err != nil {
			return ep, err
		}

		r := cluster.RunPlan(p)
		switch {
		case r.Err != nil:
			ep.Errors++
		case r.Outcome == wire.Commit:
			ep.Commits++
		default:
			ep.Aborts++
		}
		if err := recoverAll(); err != nil {
			return ep, err
		}
		if r.Err != nil && !cluster.Coord.Crashed() {
			// A commit-path error can leave the coordinator holding a
			// half-driven entry whose decision it refused to send (e.g. an
			// injected sync failure on the commit record). The operator's
			// remedy for a coordinator whose log is failing is to fail-stop
			// and restart it; recovery resolves the entry from the stable
			// log.
			cluster.Coord.Crash()
			if err := cluster.Coord.Recover(); err != nil {
				return ep, fmt.Errorf("recover coordinator: %w", err)
			}
		}
	}

	// Lift every fault, restart everything, and let the cluster converge
	// under a clean network before judging it.
	eng.Deactivate()
	for _, pt := range plan.Partitions {
		eng.SetPartition(pt.A, pt.B, false)
	}
	if err := recoverAll(); err != nil {
		return ep, err
	}
	ep.Faults = eng.Counters()
	ep.Report = opcheck.Run(cluster, spec.Quiesce)
	if adv := eng.AdversaryState(); adv != nil {
		att := opcheck.Attribute(ep.Report, adv.Site(), adv.TaintedSet())
		ep.Attribution = &att
	}
	return ep, nil
}

// ChaosMatrixRow aggregates one strategy's episodes in the E14 table.
type ChaosMatrixRow struct {
	Strategy            string
	Episodes            int
	Commits             int
	Aborts              int
	Errors              int
	Crashes             uint64 // injected crash points fired
	Dropped             uint64 // injected message drops
	AtomicityViolations int    // Theorem 1's failure mode
	RetentionLeaks      int    // Theorem 2's failure mode
	OpcheckViolations   int    // full Definition-1 violation count
}

// ChaosMatrix runs the same seeded episodes under U2PC, C2PC and PrAny —
// identical fault plans, workloads and schedules per seed — and aggregates
// each strategy's failure counts. This is Theorems 1 and 2 as measured
// rates: U2PC shows atomicity violations, C2PC shows retention leaks, PrAny
// shows neither.
func ChaosMatrix(seeds []int64, txns int, quiesce time.Duration) ([]ChaosMatrixRow, error) {
	strategies := []ChaosSpec{
		{Strategy: core.StrategyU2PC, Native: wire.PrN, Txns: txns, Quiesce: quiesce},
		{Strategy: core.StrategyC2PC, Native: wire.PrN, Txns: txns, Quiesce: quiesce},
		{Strategy: core.StrategyPrAny, Txns: txns, Quiesce: quiesce},
	}
	var out []ChaosMatrixRow
	for _, spec := range strategies {
		var row ChaosMatrixRow
		for _, seed := range seeds {
			ep, err := RunChaosEpisode(seed, spec)
			if err != nil {
				return out, fmt.Errorf("%s seed %d: %w", ep.Strategy, seed, err)
			}
			row.Strategy = ep.Strategy
			row.Episodes++
			row.Commits += ep.Commits
			row.Aborts += ep.Aborts
			row.Errors += ep.Errors
			row.Crashes += ep.Faults.Crashes
			row.Dropped += ep.Faults.Dropped + ep.Faults.Partitioned
			row.AtomicityViolations += ep.AtomicityViolations()
			row.RetentionLeaks += ep.RetentionLeaks()
			row.OpcheckViolations += ep.Report.Violations()
		}
		out = append(out, row)
	}
	return out, nil
}
