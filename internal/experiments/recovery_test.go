package experiments

import (
	"math/rand"
	"testing"
	"time"

	"prany/internal/chaos"
	"prany/internal/opcheck"
	"prany/internal/sim"
	"prany/internal/wire"
	"prany/internal/workload"
)

// TestRecoveryScanBoundedByCheckpointing is the E18 claim as a test: with
// checkpointing on, the records a recovery scan reads stay bounded as
// terminated history grows; with it off, the scan grows with the history.
func TestRecoveryScanBoundedByCheckpointing(t *testing.T) {
	small, large := 40, 160
	if testing.Short() {
		small, large = 20, 80
	}
	const every, active, seed = 16, 6, 21

	offSmall, err := MeasureRecovery(0, small, active, seed)
	if err != nil {
		t.Fatal(err)
	}
	offLarge, err := MeasureRecovery(0, large, active, seed)
	if err != nil {
		t.Fatal(err)
	}
	onSmall, err := MeasureRecovery(every, small, active, seed)
	if err != nil {
		t.Fatal(err)
	}
	onLarge, err := MeasureRecovery(every, large, active, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("off: M=%d scanned=%d, M=%d scanned=%d", small, offSmall.Scanned, large, offLarge.Scanned)
	t.Logf("on:  M=%d scanned=%d, M=%d scanned=%d (checkpoints=%d collected=%d)",
		small, onSmall.Scanned, large, onLarge.Scanned, onLarge.Checkpoints, onLarge.Collected)

	// Without checkpointing the scan tracks the history.
	if offLarge.Scanned <= offSmall.Scanned {
		t.Errorf("checkpointing off: scan did not grow with history (%d -> %d)",
			offSmall.Scanned, offLarge.Scanned)
	}
	// With it on, quadrupling the terminated history must not move the scan
	// past the cadence-plus-active envelope: it stays well under half the
	// uncheckpointed cost and under the scan for a quarter of the history.
	if onLarge.Checkpoints == 0 {
		t.Fatal("checkpointing on: no checkpoints fired")
	}
	if onLarge.Scanned*2 >= offLarge.Scanned {
		t.Errorf("checkpointing on: scanned %d, not under half the uncheckpointed %d",
			onLarge.Scanned, offLarge.Scanned)
	}
	if onLarge.Scanned >= offSmall.Scanned {
		t.Errorf("checkpointing on at M=%d: scanned %d, not under the uncheckpointed M=%d scan %d",
			large, onLarge.Scanned, small, offSmall.Scanned)
	}
	// O(active), not O(history): the scan reads fewer records than there
	// were terminated transactions, let alone their several records each.
	if onLarge.Scanned >= large {
		t.Errorf("checkpointing on: scanned %d records for %d terminated transactions — O(history), not O(active)",
			onLarge.Scanned, large)
	}
	// The suffix metric reports the replay work after the last snapshot; it
	// can never exceed the full scan.
	if onLarge.Suffix > onLarge.Scanned {
		t.Errorf("suffix %d exceeds scanned %d", onLarge.Suffix, onLarge.Scanned)
	}
	if onLarge.Recoveries != 4 || offLarge.Recoveries != 4 {
		t.Errorf("recoveries = %d/%d, want 4 sites each", onLarge.Recoveries, offLarge.Recoveries)
	}
}

// TestCrashDuringCheckpointEitherImage pins the atomic-image contract: a
// site fail-stopped at a checkpoint's commit instant — on either side of it
// — recovers from exactly the old image or exactly the new one, never a
// mix, and the episode still satisfies Definition 1.
func TestCrashDuringCheckpointEitherImage(t *testing.T) {
	for _, tc := range []struct {
		name string
		edge chaos.CrashEdge
	}{
		{"before-checkpoint", chaos.BeforeCheckpoint},
		{"after-checkpoint", chaos.AfterCheckpoint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := chaos.Plan{Seed: 1, Crashes: []chaos.CrashPoint{{Site: "pa", Edge: tc.edge}}}
			eng := chaos.NewEngine(plan)
			cluster, err := sim.New(sim.Spec{
				Participants: []sim.PartSpec{
					{ID: "pn", Proto: wire.PrN}, {ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC},
				},
				VoteTimeout: 100 * time.Millisecond,
				ExecTimeout: 400 * time.Millisecond,
				Seed:        1,
				Chaos:       eng,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			plans := workload.Generate(workload.Spec{
				Txns: 8, OpsPerSite: 1, CommitFraction: 1.0, KeySpace: 32, Seed: 1,
			}, cluster.PartIDs())
			for _, p := range plans[:6] {
				if r := cluster.RunPlan(p); r.Err != nil {
					t.Fatalf("terminated phase: %v", r.Err)
				}
			}
			// Strand the last two in doubt so the checkpoint has live
			// protocol state to snapshot on both sides.
			rng := rand.New(rand.NewSource(2))
			restore := cluster.DropMessages(1.0, rng, wire.MsgDecision, wire.MsgAck)
			for _, p := range plans[6:] {
				cluster.RunPlan(p)
			}
			restore()

			// An explicit checkpoint at pa: the crash point fires at the
			// rewrite's commit instant.
			_, cerr := cluster.Parts["pa"].Checkpoint()
			if tc.edge == chaos.BeforeCheckpoint && cerr == nil {
				t.Fatal("before-checkpoint crash: Checkpoint reported success")
			}
			if tc.edge == chaos.AfterCheckpoint && cerr != nil {
				t.Fatalf("after-checkpoint crash: Checkpoint failed: %v", cerr)
			}
			eng.Settle()
			if got := eng.Counters().Crashes; got != 1 {
				t.Fatalf("crash points fired = %d, want 1", got)
			}
			for _, id := range eng.TakeCrashed() {
				if err := cluster.Site(id).Recover(); err != nil {
					t.Fatalf("recover %s: %v", id, err)
				}
			}
			eng.Deactivate()
			rep := opcheck.Run(cluster, 5*time.Second)
			if !rep.OK() {
				t.Fatalf("recovery from the %s image is not operationally correct:\n%s",
					tc.name, rep.Summary())
			}
		})
	}
}

// TestCheckpointCadenceUnderConcurrentLoad is the regression test for the
// CheckpointEvery deadlock: automatic checkpoints fire while 16 clients
// keep the coordinator forcing decisions and appending end records. The
// checkpoint's liveness predicate takes the protocol-table shard lock, and
// handleAck appends the end record under that same lock — so a log that
// evaluates the predicate while holding its own lock wedges the whole site
// within a few hundred transactions. The run must finish, quiesce and pass
// the Definition-1 judge.
func TestCheckpointCadenceUnderConcurrentLoad(t *testing.T) {
	const clients, every, seed = 16, 64, 5
	load := 2 * time.Second
	if testing.Short() {
		load = 500 * time.Millisecond
	}
	cluster, err := sim.New(sim.Spec{
		Participants: []sim.PartSpec{
			{ID: "pn", Proto: wire.PrN}, {ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC},
		},
		VoteTimeout:     2 * time.Second,
		CheckpointEvery: every,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	type verdict struct {
		txns   int
		report *opcheck.Report
	}
	done := make(chan verdict, 1)
	go func() {
		var v verdict
		for start := time.Now(); time.Since(start) < load; {
			plans := workload.Generate(workload.Spec{
				Txns:           400,
				OpsPerSite:     1,
				CommitFraction: 1.0,
				KeySpace:       1 << 20,
				Seed:           seed + int64(v.txns),
			}, cluster.PartIDs())
			res := cluster.RunParallel(plans, clients)
			if res.Errors > 0 {
				t.Errorf("%d transactions failed", res.Errors)
			}
			v.txns += len(plans)
		}
		v.report = opcheck.Run(cluster, 10*time.Second)
		done <- v
	}()
	select {
	case v := <-done:
		if !v.report.OK() {
			t.Fatalf("after %d transactions: %s", v.txns, v.report.Summary())
		}
		if n := cluster.Met.Total().Checkpoints; n == 0 {
			t.Fatalf("no checkpoint fired in %d transactions", v.txns)
		}
	case <-time.After(load + 60*time.Second):
		t.Fatal("cluster wedged: checkpointing deadlocked against the commit path")
	}
}
