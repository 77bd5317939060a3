package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"prany/internal/sim"
	"prany/internal/wire"
	"prany/internal/workload"
)

// RecoveryPoint is one E18 measurement: a cluster crashed with a known mix
// of terminated history and in-doubt work, then recovered, with the scan
// cost read from the recovery metrics.
type RecoveryPoint struct {
	// CkptEvery is the checkpoint cadence the cluster ran with (0 = off).
	CkptEvery int
	// Terminated and Active are the workload mix at crash time: Terminated
	// transactions ran to completion and drained; Active were stranded
	// in doubt (decisions and acknowledgments suppressed).
	Terminated int
	Active     int
	// Commits/Errors sanity-check the terminated phase.
	Commits int
	Errors  int
	// StableBefore is the cluster-wide stable protocol-record count at crash
	// time — the log recovery must contend with.
	StableBefore int
	// Recoveries, Scanned and Suffix come from the recovery metrics: how
	// many site recoveries ran, how many stable records their scans read in
	// total, and how many of those sat after the last checkpoint record.
	Recoveries int
	Scanned    int
	Suffix     int
	// Checkpoints and Collected are the checkpoint metrics accumulated
	// before the crash.
	Checkpoints uint64
	Collected   uint64
}

// MeasureRecovery runs the E18 harness once: a mixed PrN/PrA/PrC cluster
// executes terminated transactions to completion, strands active
// transactions in doubt by suppressing every DECISION and ACK, fail-stops
// every site, and recovers them all. The returned point carries the scan
// cost the recovery metrics observed.
//
// The claim under test is the replay-only state model's recovery bound:
// with ckptEvery > 0 the scanned-record count is O(active + cadence),
// independent of terminated, while with checkpointing off it grows with the
// full history.
func MeasureRecovery(ckptEvery, terminated, active int, seed int64) (RecoveryPoint, error) {
	pt := RecoveryPoint{CkptEvery: ckptEvery, Terminated: terminated, Active: active}
	cluster, err := sim.New(sim.Spec{
		Participants: []sim.PartSpec{
			{ID: "pn", Proto: wire.PrN}, {ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC},
		},
		VoteTimeout:     100 * time.Millisecond,
		CheckpointEvery: ckptEvery,
		Seed:            seed,
	})
	if err != nil {
		return pt, err
	}
	defer cluster.Close()

	plans := workload.Generate(workload.Spec{
		Txns:           terminated + active,
		OpsPerSite:     1,
		CommitFraction: 1.0,
		KeySpace:       128,
		Seed:           seed,
	}, cluster.PartIDs())

	res := cluster.Run(plans[:terminated])
	pt.Commits = res.Commits
	pt.Errors = res.Errors
	if !cluster.Quiesce(5 * time.Second) {
		return pt, fmt.Errorf("recovery harness: terminated phase did not quiesce")
	}

	// Strand the active set in doubt: with every DECISION and ACK
	// suppressed, participants stay prepared and the coordinator keeps
	// draining entries — live protocol-table state on both sides of the
	// crash.
	rng := rand.New(rand.NewSource(seed + 1))
	restore := cluster.DropMessages(1.0, rng, wire.MsgDecision, wire.MsgAck)
	for _, p := range plans[terminated:] {
		cluster.RunPlan(p)
	}
	restore()

	pt.StableBefore = cluster.StableRecords()
	sites := append([]wire.SiteID{sim.CoordID}, cluster.PartIDs()...)
	for _, id := range sites {
		cluster.Site(id).Crash()
	}
	pre := cluster.Met.Total()
	pt.Checkpoints = pre.Checkpoints
	pt.Collected = pre.CheckpointCollected

	for _, id := range sites {
		if err := cluster.Site(id).Recover(); err != nil {
			return pt, fmt.Errorf("recover %s: %w", id, err)
		}
	}

	tot := cluster.Met.Total()
	pt.Recoveries = int(tot.Recoveries)
	pt.Scanned = int(tot.RecoveryScanned)
	pt.Suffix = int(tot.RecoverySuffix)
	return pt, nil
}
