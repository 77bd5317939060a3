package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"prany/internal/core"
	"prany/internal/sim"
	"prany/internal/wire"
)

// Theorem1Result is one adversarial schedule's outcome under one strategy.
type Theorem1Result struct {
	Schedule   string // which proof part's schedule ran
	Strategy   string // "U2PC(PrN)", "PrAny", ...
	Violations int    // atomicity + safe-state breaches detected
	Diverged   bool   // data actually differs across sites
}

// theorem1Schedule runs one adversarial schedule: a transaction at a PrA
// and a PrC participant; for the commit case the decision to the PrC site
// is lost, for the abort case the PrC site's vote is lost (timeout abort)
// and the PrA site's non-forced abort record dies with a crash. The victim
// site then crashes and recovers, resolving by inquiry.
func theorem1Schedule(strategy core.Strategy, native wire.Protocol, commitCase bool) (Theorem1Result, error) {
	label := "PrAny"
	if strategy != core.StrategyPrAny {
		label = fmt.Sprintf("%s(%s)", strategy, native)
	}
	schedule := "commit/PrC-victim"
	if !commitCase {
		schedule = "abort/PrA-victim"
	}
	res := Theorem1Result{Schedule: schedule, Strategy: label}

	cluster, err := sim.New(sim.Spec{
		Strategy: strategy,
		Native:   native,
		Participants: []sim.PartSpec{
			{ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC},
		},
		VoteTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer cluster.Close()

	victim := wire.SiteID("pc")
	var remove func()
	if commitCase {
		remove = cluster.DropMessages(1.0, rand.New(rand.NewSource(1)), wire.MsgDecision)
	} else {
		victim = "pa"
		// Lose pc's vote so the coordinator aborts by timeout with both
		// sites prepared; pa receives the abort but its record is
		// non-forced and will die with the crash.
		id := cluster.Net.AddDropRule(func(m wire.Message) bool {
			return m.Kind == wire.MsgVote && m.From == "pc"
		})
		remove = func() { cluster.Net.RemoveDropRule(id) }
	}

	txn := cluster.Coord.Begin()
	for _, id := range []wire.SiteID{"pa", "pc"} {
		if err := txn.Put(id, "item", "sold"); err != nil {
			return res, err
		}
	}
	want := wire.Commit
	if !commitCase {
		want = wire.Abort
	}
	out, err := txn.Commit()
	if err != nil || out != want {
		return res, fmt.Errorf("experiments: schedule outcome %v (%v), wanted %v", out, err, want)
	}
	if commitCase {
		remove() // only the initial decisions were lost
	}
	cluster.Quiesce(2 * time.Second)
	if !commitCase {
		remove()
	}

	cluster.Site(victim).Crash()
	if err := cluster.Site(victim).Recover(); err != nil {
		return res, err
	}
	cluster.Quiesce(2 * time.Second)

	res.Violations = len(cluster.AtomicityViolations())
	_, paHas := cluster.Parts["pa"].Store().Read("item")
	_, pcHas := cluster.Parts["pc"].Store().Read("item")
	res.Diverged = paHas != pcHas
	return res, nil
}

// Theorem1 runs the proof's three schedules under every U2PC native
// protocol and under PrAny, returning one row per run. U2PC rows must show
// violations; PrAny rows must be clean — that is Theorems 1 and 3 side by
// side.
func Theorem1() ([]Theorem1Result, error) {
	var out []Theorem1Result
	type cfg struct {
		strategy core.Strategy
		native   wire.Protocol
		commit   bool
	}
	runs := []cfg{
		{core.StrategyU2PC, wire.PrN, true},  // Part I
		{core.StrategyU2PC, wire.PrA, true},  // Part II
		{core.StrategyU2PC, wire.PrC, false}, // Part III
		{core.StrategyPrAny, wire.PrN, true},
		{core.StrategyPrAny, wire.PrN, false},
	}
	for _, r := range runs {
		res, err := theorem1Schedule(r.strategy, r.native, r.commit)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// RetentionPoint is one measurement of Theorem 2's growth curve.
type RetentionPoint struct {
	Strategy      string
	Txns          int
	Retained      int // protocol-table entries never drained
	StableRecords int // log records that cannot be garbage-collected
}

// Theorem2 runs txns mixed-participant commits under the given strategy
// and reports what could never be forgotten. Under C2PC retention grows
// linearly (every commit waits forever for the PrC participant's ack);
// under PrAny it is zero.
func Theorem2(strategy core.Strategy, native wire.Protocol, txns int) (RetentionPoint, error) {
	label := "PrAny"
	if strategy != core.StrategyPrAny {
		label = fmt.Sprintf("%s(%s)", strategy, native)
	}
	pt := RetentionPoint{Strategy: label, Txns: txns}

	cluster, err := theorem2Cluster(strategy, native)
	if err != nil {
		return pt, err
	}
	defer cluster.Close()
	if err := commitMixed(cluster, 0, txns); err != nil {
		return pt, err
	}
	cluster.Quiesce(3 * time.Second)
	if _, err := cluster.CheckpointAll(); err != nil {
		return pt, err
	}
	pt.Retained = cluster.Coord.Coordinator().PTSize()
	pt.StableRecords = cluster.StableRecords()
	return pt, nil
}

// theorem2Cluster is Theorem 2's setting: one PrA and one PrC participant
// under the given coordinator strategy.
func theorem2Cluster(strategy core.Strategy, native wire.Protocol) (*sim.Cluster, error) {
	return sim.New(sim.Spec{
		Strategy: strategy,
		Native:   native,
		Participants: []sim.PartSpec{
			{ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC},
		},
		VoteTimeout: 250 * time.Millisecond,
	})
}

// commitMixed commits n transactions of the given round, each writing one
// fresh key at every participant.
func commitMixed(cluster *sim.Cluster, round, n int) error {
	for i := 0; i < n; i++ {
		txn := cluster.Coord.Begin()
		for _, id := range cluster.PartIDs() {
			if err := txn.Put(id, fmt.Sprintf("k%d-%d", round, i), "v"); err != nil {
				return err
			}
		}
		if out, err := txn.Commit(); err != nil || out != wire.Commit {
			return fmt.Errorf("experiments: round %d txn %d: %v %v", round, i, out, err)
		}
	}
	return nil
}

// FaultSweepResult is one Monte-Carlo fault-injection run (Theorem 3).
type FaultSweepResult struct {
	DropProb   float64
	Crashes    int
	Txns       int
	Commits    int
	Aborts     int
	Violations int
	Quiesced   bool
	Leftover   int // stable records after final checkpoint
}

// FaultSweep runs txns transactions over a mixed cluster while dropping
// protocol messages with probability dropProb and crash/recovering random
// participants every few transactions, then drives the system to
// quiescence and checks full operational correctness. Under PrAny the
// result must always be zero violations, quiesced, zero leftover.
func FaultSweep(strategy core.Strategy, native wire.Protocol, dropProb float64, txns int, seed int64) (FaultSweepResult, error) {
	res := FaultSweepResult{DropProb: dropProb, Txns: txns}
	cluster, err := sim.New(sim.Spec{
		Strategy: strategy,
		Native:   native,
		Participants: []sim.PartSpec{
			{ID: "pn", Proto: wire.PrN}, {ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC},
		},
		VoteTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer cluster.Close()

	rng := rand.New(rand.NewSource(seed))
	remove := cluster.DropMessages(dropProb, rng,
		wire.MsgDecision, wire.MsgAck, wire.MsgVote, wire.MsgInquiry)

	ids := cluster.PartIDs()
	for i := 0; i < txns; i++ {
		txn := cluster.Coord.Begin()
		ok := true
		for _, id := range ids {
			if err := txn.Put(id, fmt.Sprintf("k%d", i%16), "v"); err != nil {
				_ = txn.Abort()
				ok = false
				break
			}
		}
		if !ok {
			res.Aborts++
			continue
		}
		out, err := txn.Commit()
		switch {
		case err != nil:
			res.Aborts++
		case out == wire.Commit:
			res.Commits++
		default:
			res.Aborts++
		}
		// Occasionally crash and recover a random participant, letting
		// ticks run while it is down.
		if rng.Float64() < 0.15 {
			res.Crashes++
			victim := ids[rng.Intn(len(ids))]
			if err := cluster.CrashRecover(victim, 5*time.Millisecond); err != nil {
				return res, err
			}
		}
	}
	remove()

	res.Quiesced = cluster.Quiesce(20 * time.Second)
	res.Violations = len(cluster.Violations())
	if _, err := cluster.CheckpointAll(); err != nil {
		return res, err
	}
	res.Leftover = cluster.StableRecords()
	return res, nil
}
