package experiments

import (
	"testing"
	"time"

	"prany/internal/chaos"
	"prany/internal/core"
	"prany/internal/wire"
)

// TestChaosSweepPrAnyClean is the seeded chaos sweep behind `make chaos`:
// random fault plans (drops, delays, duplicates, partitions, protocol-step
// crashes, WAL failures) over a mixed PrN/PrA/PrC cluster under PrAny must
// always converge to full operational correctness.
func TestChaosSweepPrAnyClean(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		ep, err := RunChaosEpisode(seed, ChaosSpec{Strategy: core.StrategyPrAny})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ep.Report.OK() {
			t.Errorf("seed %d: %s\nrepro: go run ./cmd/prany-chaos -episodes 1 -seed %d",
				seed, ep.Report.Summary(), seed)
		}
	}
}

// theorem1Plan is the deterministic kill shot for U2PC: every decision sent
// to the PrC participant is lost, so it resolves committed transactions by
// post-forget inquiry — which a native-presumption coordinator answers
// wrongly (Theorem 1) and PrAny answers with the inquirer's own presumption.
func theorem1Plan() *chaos.Plan {
	return &chaos.Plan{Seed: 1, Faults: []chaos.MsgFault{
		{Kinds: []wire.MsgKind{wire.MsgDecision}, To: "pc", Drop: 1},
	}}
}

// TestChaosTheoremSignal pins the E14 matrix's signal: under one explicit
// fault plan, U2PC violates atomicity, C2PC leaks retention on every
// commit, and PrAny stays operationally correct.
func TestChaosTheoremSignal(t *testing.T) {
	spec := func(s core.Strategy) ChaosSpec {
		return ChaosSpec{Strategy: s, Native: wire.PrN, Txns: 6,
			Quiesce: 1500 * time.Millisecond, Plan: theorem1Plan()}
	}

	u2pc, err := RunChaosEpisode(101, spec(core.StrategyU2PC))
	if err != nil {
		t.Fatal(err)
	}
	if u2pc.Commits == 0 {
		t.Fatalf("U2PC episode committed nothing: %+v", u2pc)
	}
	if u2pc.AtomicityViolations() == 0 {
		t.Error("U2PC: expected atomicity violations under the Theorem 1 plan, got none")
	}

	c2pc, err := RunChaosEpisode(101, spec(core.StrategyC2PC))
	if err != nil {
		t.Fatal(err)
	}
	if c2pc.Commits == 0 {
		t.Fatalf("C2PC episode committed nothing: %+v", c2pc)
	}
	if c2pc.RetentionLeaks() == 0 {
		t.Error("C2PC: expected retention leaks (Theorem 2), got none")
	}

	prany, err := RunChaosEpisode(101, spec(core.StrategyPrAny))
	if err != nil {
		t.Fatal(err)
	}
	if !prany.Report.OK() {
		t.Errorf("PrAny under the same plan: %s", prany.Report.Summary())
	}
}
