package mcheck

import (
	"strings"
	"testing"

	"prany/internal/core"
	"prany/internal/wire"
)

// TestPrAnyExhaustiveClean is the tentpole claim: over the full bounded
// schedule space — every delivery ordering, every budgeted crash plan,
// every recovery interleaving — PrAny never violates Definition 1. This is
// the exhaustive analogue of the paper's PrAny correctness argument.
func TestPrAnyExhaustiveClean(t *testing.T) {
	res := Exhaust(Config{Strategy: core.StrategyPrAny})
	t.Logf("PrAny: plans=%d explored=%d deduped=%d ample=%d schedules=%d elapsed=%dms",
		res.Plans, res.Explored, res.Deduped, res.AmpleSteps, res.Schedules, res.ElapsedMS)
	if res.Schedules == 0 {
		t.Fatalf("no schedules judged")
	}
	for _, cex := range res.Counterexamples {
		t.Errorf("counterexample: %s\n%s", cex.Schedule, cex.Summary)
	}
	for _, e := range res.Errors {
		t.Errorf("episode error: %s", e)
	}
	if res.Truncated {
		t.Errorf("exploration truncated: not exhaustive")
	}
	if !res.Clean() {
		t.Fatalf("PrAny not clean: %d violating of %d schedules", res.Violating, res.Schedules)
	}
}

// TestU2PCAtomicityCounterexample re-derives Theorem 1 exhaustively: the
// union straw man must yield at least one atomicity counterexample —
// a native presumption answering a forgotten transaction's inquiry with
// the wrong outcome.
func TestU2PCAtomicityCounterexample(t *testing.T) {
	res := Exhaust(Config{Strategy: core.StrategyU2PC, Native: wire.PrN})
	t.Logf("U2PC/PrN: plans=%d explored=%d schedules=%d violating=%d elapsed=%dms",
		res.Plans, res.Explored, res.Schedules, res.Violating, res.ElapsedMS)
	if res.Violating == 0 {
		t.Fatalf("expected Theorem-1 counterexamples, found none in %d schedules", res.Schedules)
	}
	var atom *Counterexample
	for i := range res.Counterexamples {
		if res.Counterexamples[i].Kind == "atomicity" {
			atom = &res.Counterexamples[i]
			break
		}
	}
	if atom == nil {
		t.Fatalf("no atomicity counterexample among %d stored: %+v",
			len(res.Counterexamples), res.Counterexamples)
	}
	t.Logf("atomicity counterexample: %s", atom.Schedule)

	// The counterexample string must replay to the same verdict.
	sched, err := ParseSchedule(atom.Schedule)
	if err != nil {
		t.Fatalf("parsing emitted schedule: %v", err)
	}
	rep, err := Replay(sched)
	if err != nil {
		t.Fatalf("replaying emitted schedule: %v", err)
	}
	if rep.OK() {
		t.Fatalf("replay of violating schedule judged clean:\n%s", atom.Schedule)
	}
	if len(rep.Atomicity)+len(rep.SafeState) == 0 {
		t.Fatalf("replay lost the atomicity violation: %s", rep.Summary())
	}
}

// TestC2PCRetentionCounterexample re-derives Theorem 2: the coordinated
// straw man retains protocol state forever — it awaits acks that PrA
// participants never send for aborts and PrC participants never send for
// commits — so even the no-fault plan must violate clause 2/3.
func TestC2PCRetentionCounterexample(t *testing.T) {
	res := Exhaust(Config{Strategy: core.StrategyC2PC, Native: wire.PrN, StopAtFirst: true})
	t.Logf("C2PC/PrN: plans=%d explored=%d schedules=%d violating=%d elapsed=%dms",
		res.Plans, res.Explored, res.Schedules, res.Violating, res.ElapsedMS)
	if res.Violating == 0 {
		t.Fatalf("expected Theorem-2 counterexamples, found none in %d schedules", res.Schedules)
	}
	var ret *Counterexample
	for i := range res.Counterexamples {
		if res.Counterexamples[i].Kind == "retention" {
			ret = &res.Counterexamples[i]
			break
		}
	}
	if ret == nil {
		t.Fatalf("no retention counterexample among stored: %+v", res.Counterexamples)
	}
	t.Logf("retention counterexample: %s", ret.Schedule)

	sched, err := ParseSchedule(ret.Schedule)
	if err != nil {
		t.Fatalf("parsing emitted schedule: %v", err)
	}
	rep, err := Replay(sched)
	if err != nil {
		t.Fatalf("replaying emitted schedule: %v", err)
	}
	if rep.OK() {
		t.Fatalf("replay of violating schedule judged clean:\n%s", ret.Schedule)
	}
}

// TestScheduleRoundTrip checks the schedule codec over every section
// shape: strategies with and without native protocols, crash plans of
// zero, one and two points, and all three action forms.
func TestScheduleRoundTrip(t *testing.T) {
	cases := []string{
		"prany|pa=PrA,pc=PrC|t2|crash=-|",
		"u2pc/PrN|pa=PrA,pc=PrC|t2|crash=pc:od:DECISION:0|vt,rec:pc",
		"c2pc/PrA|pa=PrA,pb=PrA,pc=PrC|t1|crash=coord:af:commit.c:1+pa:os:ACK:0|d:coord>pa,d:pa>coord,rec:coord",
	}
	for _, in := range cases {
		sched, err := ParseSchedule(in)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		out := EncodeSchedule(sched)
		if out != in {
			t.Errorf("round trip changed the schedule:\n in  %s\n out %s", in, out)
		}
	}
	for _, bad := range []string{
		"",
		"prany|pa=PrA|t2|crash=-",         // four fields
		"frob|pa=PrA|t2|crash=-|",         // unknown strategy
		"prany||t2|crash=-|",              // no participants
		"prany|pa=PrA|tx|crash=-|",        // bad txn count
		"prany|pa=PrA|t2|crash=bogus|",    // bad crash point
		"prany|pa=PrA|t2|crash=-|d:coord", // bad action
		"prany|pa=Frob|t2|crash=-|",       // unknown protocol
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted a malformed schedule", bad)
		}
	}
}

// TestReplayDeterminism replays one faulty schedule repeatedly and demands
// bit-identical verdicts — the property every other mcheck guarantee
// stands on.
func TestReplayDeterminism(t *testing.T) {
	// No explicit choices: convergence alone delivers the decision (firing
	// the crash) and recovers the site — still a full crash/recovery run.
	sched, err := ParseSchedule("prany|pa=PrA,pc=PrC|t2|crash=pc:od:DECISION:0|")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var first string
	for i := 0; i < 5; i++ {
		rep, err := Replay(sched)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		s := rep.Summary()
		if i == 0 {
			first = s
			continue
		}
		if s != first {
			t.Fatalf("replay %d diverged:\n first %s\n now   %s", i, first, s)
		}
	}
	if !strings.HasPrefix(first, "ok") {
		t.Fatalf("PrAny schedule with one recovered crash should judge clean, got: %s", first)
	}
}

// TestReplayDivergenceDetected makes sure a stale or hand-edited schedule
// fails loudly instead of silently exploring something else.
func TestReplayDivergenceDetected(t *testing.T) {
	sched, err := ParseSchedule("prany|pa=PrA,pc=PrC|t1|crash=-|rec:pc")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Replay(sched); err == nil {
		t.Fatalf("recovering an up site should be a divergence error")
	}
}

// TestBudgetShape pins the budget arithmetic: nil plan + 11 single-point
// archetypes x (maxSkip+1) + 4 recovery pairs for the default 2-part mix
// — and that the skip sentinel survives repeated defaulting (a negative
// MaxSkip must stay "skip-0 only" no matter how often the config is
// normalized).
func TestBudgetShape(t *testing.T) {
	if got := len(Budget(Config{Strategy: core.StrategyPrAny})); got != 1+11*2+4 {
		t.Fatalf("default budget has %d plans, want %d", got, 1+11*2+4)
	}
	quick := Config{Strategy: core.StrategyPrAny, MaxSkip: -1}.withDefaults().withDefaults()
	if got := len(Budget(quick)); got != 1+11*1+4 {
		t.Fatalf("skip-0 budget has %d plans, want %d", got, 1+11*1+4)
	}
}
