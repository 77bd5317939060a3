// Command prany-trace executes one transaction under a chosen protocol mix
// and prints the resulting message/logging ladder — an executable rendering
// of Figures 1-4 of "Atomicity with Incompatible Presumptions".
//
// Usage:
//
//	prany-trace -protocol prn|pra|prc|prany|iyv|cl [-outcome commit|abort] [-n 2]
//
// For prn/pra/prc the cluster is homogeneous with n participants; for prany
// it is one PrN, one PrA and one PrC participant (the mixed case of Figure
// 1). The trace interleaves every message with every log write, marking
// forced writes, exactly the vocabulary of the paper's figures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"prany/internal/sim"
	"prany/internal/wal"
	"prany/internal/wire"
	"prany/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("prany-trace", flag.ContinueOnError)
	fs.SetOutput(stdout)
	proto := fs.String("protocol", "prany", "protocol to trace: prn, pra, prc or prany")
	outcome := fs.String("outcome", "commit", "commit or abort")
	n := fs.Int("n", 2, "participants for homogeneous traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec, label, err := clusterSpec(*proto, *n)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 2
	}
	cluster, err := sim.New(spec)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	defer cluster.Close()

	tr := newTracer()
	cluster.Net.OnSend(tr.message)
	cluster.Coord.Log().SetTap(tr.logWrite(sim.CoordID))
	for id, s := range cluster.Parts {
		s.Log().SetTap(tr.logWrite(id))
	}

	plan := workload.TxnPlan{Ops: map[wire.SiteID][]wire.Op{}}
	for _, id := range cluster.PartIDs() {
		plan.Sites = append(plan.Sites, id)
		plan.Ops[id] = []wire.Op{{Kind: wire.OpPut, Key: "k", Value: "v"}}
	}
	if *outcome == "abort" {
		plan.Abort = true
		plan.PoisonSite = plan.Sites[len(plan.Sites)-1]
	}

	res := cluster.RunPlan(plan)
	if res.Err != nil {
		fmt.Fprintln(stdout, res.Err)
		return 1
	}
	cluster.Quiesce(2 * time.Second)

	fmt.Fprintf(stdout, "Trace: %s, %s case, participants: %s\n\n", label, res.Outcome, partList(cluster))
	tr.print(stdout)

	fmt.Fprintln(stdout)
	tot := cluster.Met.Total()
	fmt.Fprintf(stdout, "totals: %d messages, %d forced writes, %d log records\n",
		tot.TotalMessages()-tot.Messages[wire.MsgExec]-tot.Messages[wire.MsgExecReply],
		tot.Forces, tot.Appends)
	if v := cluster.Violations(); len(v) != 0 {
		fmt.Fprintln(stdout, "VIOLATIONS:")
		for _, x := range v {
			fmt.Fprintln(stdout, "  -", x)
		}
		return 1
	}
	return 0
}

func clusterSpec(proto string, n int) (sim.Spec, string, error) {
	spec := sim.Spec{VoteTimeout: 200 * time.Millisecond}
	p, err := wire.ParseProtocol(proto)
	switch {
	case err == nil && p.ParticipantProtocol():
		for i := 0; i < n; i++ {
			spec.Participants = append(spec.Participants,
				sim.PartSpec{ID: wire.SiteID(fmt.Sprintf("p%d", i+1)), Proto: p})
		}
		return spec, p.String(), nil
	case err == nil && p == wire.PrAny:
		spec.Participants = []sim.PartSpec{
			{ID: "pn", Proto: wire.PrN}, {ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC},
		}
		return spec, "PrAny", nil
	default:
		return spec, "", fmt.Errorf("unknown protocol %q (want prn, pra, prc, iyv, cl or prany)", proto)
	}
}

func partList(c *sim.Cluster) string {
	var parts []string
	for _, p := range c.Spec.Participants {
		parts = append(parts, fmt.Sprintf("%s(%s)", p.ID, p.Proto))
	}
	return strings.Join(parts, " ")
}

// tracer collects messages and log writes into one ordered ladder.
type tracer struct {
	mu    sync.Mutex
	lines []string
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) message(m wire.Message) {
	if m.Kind == wire.MsgExec || m.Kind == wire.MsgExecReply {
		return // work-phase traffic; the figures start at PREPARE
	}
	detail := ""
	switch m.Kind {
	case wire.MsgVote:
		detail = " " + m.Vote.String()
		if len(m.Writes) > 0 {
			detail += fmt.Sprintf(" [+%d shipped writes]", len(m.Writes))
		}
	case wire.MsgDecision, wire.MsgAck:
		detail = " " + m.Outcome.String()
		if len(m.Writes) > 0 {
			detail += fmt.Sprintf(" [+%d shipped writes]", len(m.Writes))
		}
	}
	t.add(fmt.Sprintf("%-7s --%s%s--> %s", m.From, m.Kind, detail, m.To))
}

func (t *tracer) logWrite(id wire.SiteID) func(rec wal.Record, forced bool) {
	return func(rec wal.Record, forced bool) {
		mode := "write"
		if forced {
			mode = "FORCE-write"
		}
		extra := ""
		if rec.Kind == wal.KInitiation && len(rec.Participants) > 0 {
			var ps []string
			for _, pi := range rec.Participants {
				ps = append(ps, fmt.Sprintf("%s:%s", pi.ID, pi.Proto))
			}
			extra = " [" + strings.Join(ps, " ") + "]"
		}
		t.add(fmt.Sprintf("%-7s %s %s record%s", id, mode, rec.Kind, extra))
	}
}

func (t *tracer) add(line string) {
	t.mu.Lock()
	t.lines = append(t.lines, line)
	t.mu.Unlock()
}

func (t *tracer) print(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, l := range t.lines {
		fmt.Fprintf(w, "%3d. %s\n", i+1, l)
	}
}
