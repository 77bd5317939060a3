// Package experiments implements the reproduction harness: one function per
// experiment in DESIGN.md §4, each returning structured results in logical
// units (forced writes, records, messages, violations — never wall-clock
// time) that cmd/prany-tables, cmd/prany-chaos and cmd/prany-check render
// and this package's tests assert against the paper's predictions. The
// experiments are:
//
//	E1-E4  per-protocol cost profiles (Figures 2, 3, 4, 1)
//	E5     U2PC atomicity violations (Theorem 1)
//	E6     C2PC unbounded retention (Theorem 2)
//	E7     PrAny operational correctness under fault injection (Theorem 3)
//	E8     who-wins performance across commit ratios
//	E10    read-only optimization ablation
//	E14    seeded chaos matrix (chaos.go)
//	E15    exhaustive theorem matrix (mcheck.go)
//	E18    recovery scan vs log size (recovery.go)
//	E20    Byzantine tolerance matrix (byz.go)
package experiments

import (
	"fmt"
	"strings"
	"time"

	"prany/internal/core"
	"prany/internal/sim"
	"prany/internal/wire"
	"prany/internal/workload"
)

// Costs is the cost profile of one transaction under one protocol mix —
// the quantitative content of the paper's Figures 1-4.
type Costs struct {
	Label   string
	N       int // participants
	Outcome wire.Outcome

	CoordForces  uint64 // forced writes at the coordinator
	CoordRecords uint64 // log records at the coordinator (incl. lazy)
	PartForces   uint64 // forced writes across participants
	PartRecords  uint64 // log records across participants
	Messages     uint64 // protocol messages (prepare, vote, decision, ack)
	Acks         uint64 // acknowledgment messages among them
}

// MeasureCost runs exactly one transaction over participants running the
// given protocols and returns the measured cost profile. outcome selects
// the commit case or the abort case (induced by a no vote at the last
// participant, the standard abort scenario).
func MeasureCost(mix []wire.Protocol, outcome wire.Outcome) (Costs, error) {
	spec := sim.Spec{VoteTimeout: 500 * time.Millisecond}
	for i, p := range mix {
		spec.Participants = append(spec.Participants,
			sim.PartSpec{ID: wire.SiteID(fmt.Sprintf("p%d", i+1)), Proto: p})
	}
	cluster, err := sim.New(spec)
	if err != nil {
		return Costs{}, err
	}
	defer cluster.Close()

	plan := workload.TxnPlan{Ops: map[wire.SiteID][]wire.Op{}}
	for _, id := range cluster.PartIDs() {
		plan.Sites = append(plan.Sites, id)
		plan.Ops[id] = []wire.Op{{Kind: wire.OpPut, Key: "k", Value: "v"}}
	}
	if outcome == wire.Abort {
		if mix[len(mix)-1].OnePhase() {
			return Costs{}, fmt.Errorf("experiments: abort scenario needs a two-phase no-voter last in the mix")
		}
		plan.Abort = true
		plan.PoisonSite = plan.Sites[len(plan.Sites)-1]
	}
	res := cluster.RunPlan(plan)
	if res.Err != nil {
		return Costs{}, res.Err
	}
	if res.Outcome != outcome {
		return Costs{}, fmt.Errorf("experiments: outcome %v, wanted %v", res.Outcome, outcome)
	}
	if !cluster.Quiesce(5 * time.Second) {
		return Costs{}, fmt.Errorf("experiments: cluster did not quiesce")
	}
	if v := cluster.Violations(); len(v) != 0 {
		return Costs{}, fmt.Errorf("experiments: correctness violated: %v", v[0])
	}

	c := Costs{Label: mixLabel(mix), N: len(mix), Outcome: outcome}
	coord := cluster.Met.Site(sim.CoordID)
	c.CoordForces = coord.Forces
	c.CoordRecords = coord.Appends
	for _, id := range cluster.PartIDs() {
		pc := cluster.Met.Site(id)
		c.PartForces += pc.Forces
		c.PartRecords += pc.Appends
		c.Acks += pc.Messages[wire.MsgAck]
		c.Messages += pc.Messages[wire.MsgVote] + pc.Messages[wire.MsgAck] + pc.Messages[wire.MsgInquiry]
	}
	c.Messages += coord.Messages[wire.MsgPrepare] + coord.Messages[wire.MsgDecision]
	return c, nil
}

// ExpectedCost computes the analytic cost profile straight from the
// protocol rules — the numbers one reads off the paper's figures; the
// coordinator's forced and end records come from the chosen variant's
// wire.Rule row. The abort case assumes the last participant votes no at
// prepare time (so it must be a two-phase site) and the rest vote yes,
// matching MeasureCost's scenario; every site executed one operation batch.
// One-phase (IYV) sites force one operation record during execution instead
// of a prepared record, skip the voting round entirely, and follow
// presumed-abort decision discipline.
func ExpectedCost(mix []wire.Protocol, outcome wire.Outcome) Costs {
	n := len(mix)
	chosen := core.Select(mix)
	c := Costs{Label: mixLabel(mix), N: n, Outcome: outcome}

	// Coordinator logging.
	rule := chosen.Rule()
	if rule.ForcesInitiation() {
		c.CoordForces++ // initiation
		c.CoordRecords++
	}
	if outcome == wire.Commit || rule.ForcesAbort() {
		c.CoordForces++ // decision
		c.CoordRecords++
	}
	if rule.EndsOn(outcome) {
		c.CoordRecords++ // lazy end record
	}

	for i, p := range mix {
		poisoned := outcome == wire.Abort && i == n-1

		// The durable promise: a forced prepared record at two-phase
		// yes-voters, a forced operation record at IYV sites (written
		// during execution, before the outcome is known — so even on the
		// poisoned... IYV sites are never the poisoned one), or, for CL
		// sites, a remote-writes record forced at the *coordinator*. In
		// the abort case a CL yes vote may lose the race against the no
		// vote, in which case its remote-writes record is never forced:
		// the deterministic model counts commit-case records only and the
		// test tolerates the abort-case surplus (see CLRemoteSlack).
		if p.ShipsWrites() {
			if outcome == wire.Commit {
				c.CoordForces++
				c.CoordRecords++
			}
		} else if p.OnePhase() || !poisoned {
			c.PartForces++
			c.PartRecords++
		}

		// Voting round: two-phase sites only.
		if !p.OnePhase() {
			c.Messages += 2 // prepare + vote
		}

		// Decision phase: every site except the no-voter receives the
		// decision and writes a decision record, forced iff it acks — CL
		// sites excepted: they log nothing, ever.
		if poisoned {
			continue
		}
		c.Messages++ // decision
		if !p.ShipsWrites() {
			c.PartRecords++
			if p.Acks(outcome) {
				c.PartForces++
			}
		}
		if p.Acks(outcome) {
			c.Acks++
			c.Messages++ // ack
		}
	}
	return c
}

// CLRemoteSlack returns how many coordinator forced writes beyond the
// ExpectedCost minimum a measured abort may legitimately contain: one
// remote-writes record per coordinator-log yes voter whose vote arrived
// before the aborting no vote ended the race. Zero for commits (every vote
// is counted there) and for CL-free mixes.
func CLRemoteSlack(mix []wire.Protocol, outcome wire.Outcome) uint64 {
	if outcome == wire.Commit {
		return 0
	}
	var slack uint64
	for i, p := range mix {
		if p.ShipsWrites() && i != len(mix)-1 { // the last site is the no-voter
			slack++
		}
	}
	return slack
}

func mixLabel(mix []wire.Protocol) string {
	chosen := core.Select(mix)
	if chosen != wire.PrAny {
		return chosen.String()
	}
	counts := map[wire.Protocol]int{}
	for _, p := range mix {
		counts[p]++
	}
	var parts []string
	for p := wire.Protocol(0); p.Valid(); p++ {
		if p.ParticipantProtocol() && counts[p] > 0 {
			parts = append(parts, fmt.Sprintf("%d%s", counts[p], p))
		}
	}
	return "PrAny[" + strings.Join(parts, "+") + "]"
}

// Homogeneous returns an n-site mix of one protocol.
func Homogeneous(p wire.Protocol, n int) []wire.Protocol {
	out := make([]wire.Protocol, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// MixedThirds returns an n-site mix cycling PrN, PrA, PrC.
func MixedThirds(n int) []wire.Protocol {
	cycle := []wire.Protocol{wire.PrN, wire.PrA, wire.PrC}
	out := make([]wire.Protocol, n)
	for i := range out {
		out[i] = cycle[i%3]
	}
	return out
}
