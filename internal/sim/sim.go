// Package sim builds heterogeneous clusters in memory and drives workloads,
// failure schedules and recovery through them. It is the experiment harness
// behind every table and theorem demonstration in EXPERIMENTS.md: a cluster
// is a set of site.Site values over one transport.ChanNetwork with a shared
// history recorder and metrics registry, so a run yields both the cost
// counters (messages, forced writes, retention) and a checkable global
// history.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"prany/internal/chaos"
	"prany/internal/core"
	"prany/internal/history"
	"prany/internal/metrics"
	"prany/internal/nonext"
	"prany/internal/obs"
	"prany/internal/site"
	"prany/internal/transport"
	"prany/internal/wal"
	"prany/internal/wire"
	"prany/internal/workload"
)

// PartSpec declares one participant site.
type PartSpec struct {
	ID    wire.SiteID
	Proto wire.Protocol
	// Legacy marks a non-externalized site: its data lives in a
	// nonext.LegacyStore (auto-commit only) behind a nonext.Agent that
	// simulates the prepared state — the Figure 5 taxonomy's integration
	// path for systems without a commit protocol.
	Legacy bool
}

// Spec describes a cluster: one coordinator site plus participants.
type Spec struct {
	// Coordinator strategy (PrAny by default) and native protocol for
	// U2PC/C2PC.
	Strategy core.Strategy
	Native   wire.Protocol
	// CoordProto is the coordinator site's own participant protocol (it
	// can hold data too). Defaults to PrN.
	CoordProto wire.Protocol
	// Participants lists the data sites.
	Participants []PartSpec
	// VoteTimeout for the coordinator's voting phase; keep it short in
	// tests. Zero means 250ms.
	VoteTimeout time.Duration
	// ReadOnlyOpt enables the read-only voting optimization everywhere.
	ReadOnlyOpt bool
	// ForceDelay simulates per-flush device latency on every site's log
	// store. Zero means instantaneous flushes.
	ForceDelay time.Duration
	// CheckpointEvery enables automatic log checkpointing on every site:
	// after that many forced records a checkpoint garbage-collects the log
	// and writes a RecCheckpoint snapshot. Zero disables it (the historical
	// behavior; every committed experiment runs with it off).
	CheckpointEvery int
	// Seed seeds the cluster's random source (workload shuffles, drop
	// rules). Zero means 1, the historical default, so existing experiments
	// reproduce unchanged.
	Seed int64
	// ExecTimeout bounds each Exec round-trip at the coordinator's
	// transaction handle. Zero keeps the site default; chaos episodes set it
	// low so operations stranded by injected faults abort quickly.
	ExecTimeout time.Duration
	// Chaos, when set, interposes the fault-injecting engine between every
	// site and both its network and its log store, and binds the engine's
	// crash points to site.Crash.
	Chaos *chaos.Engine
	// Sched, when set, is installed as every site's scheduling hook: a
	// serial scheduler makes engine-internal concurrency run inline on the
	// delivery path, so a deterministic driver (the model checker) fully
	// controls event order. Nil means production scheduling.
	Sched core.Scheduler
	// Obs, when set, is installed as every site's trace recorder; chaos
	// episodes also route their injected-fault events into it. Nil means
	// tracing off.
	Obs *obs.Recorder
	// Acceptors, when positive, adds that many dedicated acceptor sites
	// (a1..aN) and switches the coordinator to the replicated Paxos Commit
	// decider (internal/consensus): decisions become durable on an acceptor
	// quorum instead of the coordinator's local log. Use an odd count 2F+1.
	Acceptors int
}

// CoordID is the identifier of the cluster's coordinator site.
const CoordID wire.SiteID = "coord"

// AcceptorIDs returns the identifiers of n dedicated acceptor sites, a1..aN,
// in slot order (the order fixes each acceptor's takeover ballot slot).
func AcceptorIDs(n int) []wire.SiteID {
	out := make([]wire.SiteID, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, wire.SiteID(fmt.Sprintf("a%d", i)))
	}
	return out
}

// Cluster is a running simulation cluster.
type Cluster struct {
	Spec  Spec
	Net   *transport.ChanNetwork
	Hist  *history.Recorder
	Met   *metrics.Registry
	PCP   *core.PCP
	Coord *site.Site
	Parts map[wire.SiteID]*site.Site
	// Accs holds the dedicated acceptor sites (empty unless Spec.Acceptors
	// is positive), keyed a1..aN.
	Accs map[wire.SiteID]*site.Site

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds and starts a cluster.
func New(spec Spec) (*Cluster, error) {
	if spec.VoteTimeout <= 0 {
		spec.VoteTimeout = 250 * time.Millisecond
	}
	if !spec.CoordProto.ParticipantProtocol() {
		spec.CoordProto = wire.PrN
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Cluster{
		Spec:  spec,
		Net:   transport.NewChanNetwork(),
		Hist:  history.NewRecorder(),
		Met:   metrics.NewRegistry(),
		PCP:   core.NewPCP(),
		Parts: make(map[wire.SiteID]*site.Site, len(spec.Participants)),
		Accs:  make(map[wire.SiteID]*site.Site, spec.Acceptors),
		rng:   rand.New(rand.NewSource(seed)),
	}
	acceptorIDs := AcceptorIDs(spec.Acceptors)
	for _, p := range spec.Participants {
		if p.ID == CoordID {
			return nil, fmt.Errorf("sim: participant id %q is reserved for the coordinator site (register it in the PCP instead)", CoordID)
		}
		c.PCP.Set(p.ID, p.Proto)
	}
	// Sites see the chaos wrappers, when present; the cluster keeps direct
	// handles on the inner network and stores for its own fault controls.
	var siteNet transport.Network = c.Net
	if spec.Chaos != nil {
		siteNet = spec.Chaos.WrapNetwork(c.Net)
	}
	newLogStore := func(id wire.SiteID) wal.Store {
		if spec.ForceDelay <= 0 && spec.Chaos == nil {
			return nil // site.New builds a plain MemStore
		}
		ms := wal.NewMemStore()
		if spec.ForceDelay > 0 {
			ms.SetAppendDelay(spec.ForceDelay)
		}
		if spec.Chaos != nil {
			return spec.Chaos.WrapStore(id, ms)
		}
		return ms
	}
	var err error
	c.Coord, err = site.New(site.Config{
		ID:    CoordID,
		Proto: spec.CoordProto,
		Coordinator: core.CoordinatorConfig{
			Strategy:    spec.Strategy,
			Native:      spec.Native,
			VoteTimeout: spec.VoteTimeout,
		},
		Net:             siteNet,
		PCP:             c.PCP,
		Hist:            c.Hist,
		Met:             c.Met,
		ReadOnlyOpt:     spec.ReadOnlyOpt,
		CheckpointEvery: spec.CheckpointEvery,
		ExecTimeout:     spec.ExecTimeout,
		LogStore:        newLogStore(CoordID),
		Sched:           spec.Sched,
		Obs:             spec.Obs,
		Acceptors:       acceptorIDs,
	})
	if err != nil {
		return nil, err
	}
	for _, id := range acceptorIDs {
		s, err := site.New(site.Config{
			ID:              id,
			Proto:           wire.PrN, // the participant role is idle on a dedicated acceptor
			Net:             siteNet,
			PCP:             c.PCP,
			Hist:            c.Hist,
			Met:             c.Met,
			CheckpointEvery: spec.CheckpointEvery,
			LogStore:        newLogStore(id),
			Coordinator:     core.CoordinatorConfig{VoteTimeout: spec.VoteTimeout},
			Sched:           spec.Sched,
			Obs:             spec.Obs,
			Acceptors:       acceptorIDs,
		})
		if err != nil {
			return nil, err
		}
		c.Accs[id] = s
	}
	for _, p := range spec.Participants {
		cfg := site.Config{
			ID:                p.ID,
			Proto:             p.Proto,
			Net:               siteNet,
			PCP:               c.PCP,
			Hist:              c.Hist,
			Met:               c.Met,
			ReadOnlyOpt:       spec.ReadOnlyOpt,
			CheckpointEvery:   spec.CheckpointEvery,
			ExecTimeout:       spec.ExecTimeout,
			LogStore:          newLogStore(p.ID),
			Coordinator:       core.CoordinatorConfig{VoteTimeout: spec.VoteTimeout},
			KnownCoordinators: []wire.SiteID{CoordID},
			Sched:             spec.Sched,
			Obs:               spec.Obs,
			Acceptors:         acceptorIDs,
		}
		if p.Legacy {
			cfg.RM = nonext.NewAgent(nonext.NewLegacyStore())
		}
		s, err := site.New(cfg)
		if err != nil {
			return nil, err
		}
		c.Parts[p.ID] = s
	}
	if spec.Chaos != nil && spec.Obs != nil {
		spec.Chaos.SetObs(spec.Obs)
	}
	if spec.Chaos != nil {
		spec.Chaos.BindCrasher(func(id wire.SiteID) {
			if s := c.Site(id); s != nil {
				s.Crash()
			}
		})
	}
	return c, nil
}

// Rand returns the cluster's seeded random source. Callers that draw from it
// concurrently must serialize themselves.
func (c *Cluster) Rand() *rand.Rand {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng
}

// Legacy returns the legacy store behind a Legacy participant, or nil.
func (c *Cluster) Legacy(id wire.SiteID) *nonext.LegacyStore {
	s := c.Parts[id]
	if s == nil {
		return nil
	}
	if agent, ok := s.RM().(*nonext.Agent); ok {
		return agent.Legacy()
	}
	return nil
}

// Close shuts the cluster's network down.
func (c *Cluster) Close() { c.Net.Close() }

// PartIDs returns the participant identifiers in declaration order.
func (c *Cluster) PartIDs() []wire.SiteID {
	out := make([]wire.SiteID, 0, len(c.Spec.Participants))
	for _, p := range c.Spec.Participants {
		out = append(out, p.ID)
	}
	return out
}

// Site returns the site with the given id (coordinator and acceptors
// included).
func (c *Cluster) Site(id wire.SiteID) *site.Site {
	if id == CoordID {
		return c.Coord
	}
	if s := c.Accs[id]; s != nil {
		return s
	}
	return c.Parts[id]
}

// TxnResult reports one executed transaction.
type TxnResult struct {
	Txn     wire.TxnID
	Outcome wire.Outcome
	Err     error
}

// RunPlan executes one workload plan through the coordinator site.
func (c *Cluster) RunPlan(plan workload.TxnPlan) TxnResult {
	t := c.Coord.Begin()
	res := TxnResult{Txn: t.ID()}
	if plan.Abort {
		// Poisoning needs the built-in store; legacy (nonext) sites cannot
		// be poisoned, so such plans fall back to committing.
		if p := c.Parts[plan.PoisonSite]; p != nil {
			if st := p.Store(); st != nil {
				st.Poison(t.ID())
			}
		}
	}
	for _, id := range plan.Sites {
		if _, err := t.Exec(id, plan.Ops[id]...); err != nil {
			// Execution failure: abandon the transaction cleanly.
			_ = t.Abort()
			res.Err = err
			res.Outcome = wire.Abort
			return res
		}
	}
	out, err := t.Commit()
	res.Outcome = out
	res.Err = err
	return res
}

// Results aggregates a workload run.
type Results struct {
	Commits, Aborts, Errors int
}

// Run executes every plan sequentially and aggregates the outcomes.
func (c *Cluster) Run(plans []workload.TxnPlan) Results {
	var res Results
	for _, plan := range plans {
		r := c.RunPlan(plan)
		switch {
		case r.Err != nil:
			res.Errors++
		case r.Outcome == wire.Commit:
			res.Commits++
		default:
			res.Aborts++
		}
	}
	return res
}

// RunParallel executes the plans with the given number of concurrent
// clients, each driving its share through the shared coordinator site.
func (c *Cluster) RunParallel(plans []workload.TxnPlan, clients int) Results {
	if clients <= 1 {
		return c.Run(plans)
	}
	var mu sync.Mutex
	var res Results
	var wg sync.WaitGroup
	next := make(chan workload.TxnPlan)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for plan := range next {
				r := c.RunPlan(plan)
				mu.Lock()
				switch {
				case r.Err != nil:
					res.Errors++
				case r.Outcome == wire.Commit:
					res.Commits++
				default:
					res.Aborts++
				}
				mu.Unlock()
			}
		}()
	}
	for _, p := range plans {
		next <- p
	}
	close(next)
	wg.Wait()
	return res
}

// Quiesce drives the cluster to quiescence: it first lets in-flight
// messages drain, and only when progress stalls fires the timeout retries
// (decision re-sends, inquiries) via Tick. It reports whether quiescence
// was reached before the deadline. Ticking only on a stall keeps
// failure-free runs free of duplicate messages, so the cost counters match
// the figures' message counts exactly.
func (c *Cluster) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		// Drain window: give deliveries a chance without retries.
		settle := time.Now().Add(20 * time.Millisecond)
		for time.Now().Before(settle) {
			if c.quiesced() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		if time.Now().After(deadline) {
			return c.quiesced()
		}
		c.Coord.Tick()
		for _, s := range c.Parts {
			s.Tick()
		}
		for _, s := range c.Accs {
			s.Tick()
		}
	}
}

// TickAll fires one timeout round everywhere: coordinator decision re-sends
// and participant inquiries/idle aborts. Chaos episode runners call it to
// drive convergence without waiting out the Quiesce drain windows.
func (c *Cluster) TickAll() {
	c.Coord.Tick()
	for _, s := range c.Parts {
		s.Tick()
	}
	for _, s := range c.Accs {
		s.Tick()
	}
}

func (c *Cluster) quiesced() bool {
	if !c.Coord.Quiesced() {
		return false
	}
	for _, s := range c.Parts {
		if !s.Quiesced() {
			return false
		}
	}
	for _, s := range c.Accs {
		if !s.Quiesced() {
			return false
		}
	}
	return true
}

// Violations checks the recorded history against full operational
// correctness. Call after Quiesce.
func (c *Cluster) Violations() []history.Violation {
	return history.CheckOperational(c.Hist.Events())
}

// AtomicityViolations checks only clause 1 (useful mid-run, before
// retention is expected to have drained).
func (c *Cluster) AtomicityViolations() []history.Violation {
	out := history.CheckAtomicity(c.Hist.Events())
	return append(out, history.CheckSafeState(c.Hist.Events())...)
}

// DropMessages installs a probabilistic omission fault: each message of a
// kind in kinds is dropped with probability p. It returns a remover.
func (c *Cluster) DropMessages(p float64, rng *rand.Rand, kinds ...wire.MsgKind) func() {
	want := make(map[wire.MsgKind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var mu sync.Mutex
	id := c.Net.AddDropRule(func(m wire.Message) bool {
		if len(want) > 0 && !want[m.Kind] {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64() < p
	})
	return func() { c.Net.RemoveDropRule(id) }
}

// CrashRecover crashes the site, holds it down for the given time (during
// which ticks elsewhere continue), then recovers it.
func (c *Cluster) CrashRecover(id wire.SiteID, down time.Duration) error {
	s := c.Site(id)
	if s == nil {
		return fmt.Errorf("sim: no site %s", id)
	}
	s.Crash()
	stop := time.Now().Add(down)
	for time.Now().Before(stop) {
		c.Coord.Tick()
		time.Sleep(time.Millisecond)
	}
	return s.Recover()
}

// CheckpointAll garbage-collects every site's log; the return value is the
// total number of records collected.
func (c *Cluster) CheckpointAll() (int, error) {
	total := 0
	n, err := c.Coord.Checkpoint()
	if err != nil {
		return total, err
	}
	total += n
	for _, s := range c.Parts {
		n, err := s.Checkpoint()
		if err != nil {
			return total, err
		}
		total += n
	}
	for _, s := range c.Accs {
		n, err := s.Checkpoint()
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// StableRecords sums the stable protocol records across all sites — the
// measure of what operational correctness has not yet allowed to be
// collected. RecCheckpoint snapshot records are excluded: they are
// checkpoint bookkeeping, not retained protocol state, and must stay
// invisible to Definition-1 judgments.
func (c *Cluster) StableRecords() int {
	total := wal.ProtocolRecords(c.Coord.Log().Records())
	for _, s := range c.Parts {
		total += wal.ProtocolRecords(s.Log().Records())
	}
	return total
}
