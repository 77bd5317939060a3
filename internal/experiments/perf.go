package experiments

import (
	"fmt"
	"time"

	"prany/internal/sim"
	"prany/internal/wire"
	"prany/internal/workload"
)

// PerfPoint is one cell of the who-wins table (E8): a protocol mix at a
// commit ratio, with the per-transaction cost averages that decide it.
type PerfPoint struct {
	Label        string
	N            int
	CommitRatio  float64
	Txns         int
	Commits      int
	Aborts       int
	ForcesPerTxn float64 // forced writes per transaction, cluster-wide
	MsgsPerTxn   float64 // protocol messages per transaction
}

// MeasurePerf runs a workload of txns transactions over participants with
// the given protocols at the given commit ratio and reports the average
// per-transaction costs.
func MeasurePerf(mix []wire.Protocol, commitRatio float64, txns, clients int, seed int64) (PerfPoint, error) {
	pt := PerfPoint{Label: mixLabel(mix), N: len(mix), CommitRatio: commitRatio, Txns: txns}
	spec := sim.Spec{VoteTimeout: 500 * time.Millisecond}
	for i, p := range mix {
		spec.Participants = append(spec.Participants,
			sim.PartSpec{ID: wire.SiteID(fmt.Sprintf("p%d", i+1)), Proto: p})
	}
	cluster, err := sim.New(spec)
	if err != nil {
		return pt, err
	}
	defer cluster.Close()

	plans := workload.Generate(workload.Spec{
		Txns:           txns,
		SitesPerTxn:    len(mix),
		OpsPerSite:     1,
		CommitFraction: commitRatio,
		KeySpace:       1 << 20, // effectively contention-free
		Seed:           seed,
	}, cluster.PartIDs())

	res := cluster.RunParallel(plans, clients)
	if res.Errors > 0 {
		return pt, fmt.Errorf("experiments: %d errors in perf run", res.Errors)
	}
	if !cluster.Quiesce(10 * time.Second) {
		return pt, fmt.Errorf("experiments: perf cluster did not quiesce")
	}
	if v := cluster.Violations(); len(v) != 0 {
		return pt, fmt.Errorf("experiments: perf run violated correctness: %v", v[0])
	}

	pt.Commits = res.Commits
	pt.Aborts = res.Aborts
	tot := cluster.Met.Total()
	protoMsgs := tot.Messages[wire.MsgPrepare] + tot.Messages[wire.MsgVote] +
		tot.Messages[wire.MsgDecision] + tot.Messages[wire.MsgAck] + tot.Messages[wire.MsgInquiry]
	pt.ForcesPerTxn = float64(tot.Forces) / float64(txns)
	pt.MsgsPerTxn = float64(protoMsgs) / float64(txns)
	return pt, nil
}

// ReadOnlyPoint is one cell of the read-only ablation (E10).
type ReadOnlyPoint struct {
	ReadOnlySites int // how many of the participants only read
	Optimized     bool
	ForcesPerTxn  float64
	MsgsPerTxn    float64
}

// MeasureReadOnly runs commits where roSites of the participants only read,
// with the read-only optimization on or off, and reports the per-txn costs.
func MeasureReadOnly(roSites int, optimized bool, txns int) (ReadOnlyPoint, error) {
	pt := ReadOnlyPoint{ReadOnlySites: roSites, Optimized: optimized}
	mix := MixedThirds(3)
	spec := sim.Spec{VoteTimeout: 500 * time.Millisecond, ReadOnlyOpt: optimized}
	for i, p := range mix {
		spec.Participants = append(spec.Participants,
			sim.PartSpec{ID: wire.SiteID(fmt.Sprintf("p%d", i+1)), Proto: p})
	}
	cluster, err := sim.New(spec)
	if err != nil {
		return pt, err
	}
	defer cluster.Close()

	ids := cluster.PartIDs()
	if roSites > len(ids) {
		roSites = len(ids)
	}
	for i := 0; i < txns; i++ {
		txn := cluster.Coord.Begin()
		for j, id := range ids {
			var err error
			if j < roSites {
				_, err = txn.Get(id, "k")
			} else {
				err = txn.Put(id, fmt.Sprintf("k%d", i), "v")
			}
			if err != nil {
				return pt, err
			}
		}
		if out, err := txn.Commit(); err != nil || out != wire.Commit {
			return pt, fmt.Errorf("experiments: read-only txn %d: %v %v", i, out, err)
		}
	}
	if !cluster.Quiesce(5 * time.Second) {
		return pt, fmt.Errorf("experiments: read-only cluster did not quiesce")
	}
	if v := cluster.Violations(); len(v) != 0 {
		return pt, fmt.Errorf("experiments: read-only run violated correctness: %v", v[0])
	}
	tot := cluster.Met.Total()
	protoMsgs := tot.Messages[wire.MsgPrepare] + tot.Messages[wire.MsgVote] +
		tot.Messages[wire.MsgDecision] + tot.Messages[wire.MsgAck]
	pt.ForcesPerTxn = float64(tot.Forces) / float64(txns)
	pt.MsgsPerTxn = float64(protoMsgs) / float64(txns)
	return pt, nil
}
