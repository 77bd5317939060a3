// Package mcheck is a deterministic bounded-exhaustive model checker for
// the commit protocols: it drives a small cluster (one coordinator, two or
// three participants with mixed presumptions) built directly on the
// core engines — no goroutines, no timers, no real network — and explores
// every schedule of message deliveries, vote timeouts and crash/recovery
// points up to a fault budget. Each maximal schedule is judged against
// Definition 1 by the opcheck history judge; a violating schedule is
// emitted as a minimal replayable string (see Schedule in schedule.go).
//
// Where the chaos engine samples the schedule space from a seed, mcheck
// enumerates it: a clean sweep is a universally-quantified statement over
// the bounded space, the exhaustive analogue of the paper's Theorems. The
// moving parts:
//
//   - an episode holds the whole cluster as plain data: per-(src,dst) FIFO
//     message queues, a wal.MemStore per site, the core engines run with a
//     serial Scheduler so every handler executes synchronously on the
//     checker's goroutine;
//   - the driver plays the transaction manager (site.Txn) deterministically:
//     it starts each transaction as soon as the previous one resolved,
//     calls Coordinator.Begin once every exec reply is in, and Resolve
//     eagerly when all votes arrived — only the vote-timeout race (resolve
//     before undelivered votes) remains a scheduling choice;
//   - crash points from the chaos taxonomy are armed per plan and fire
//     deterministically at their protocol step; crashes are therefore not
//     schedule choices, but recoveries are;
//   - after every choice the episode "settles": pending crash cleanup runs,
//     the driver advances, and provably-commutative deliveries (see
//     ampleStep) are folded in — the partial-order reduction.
package mcheck

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"prany/internal/chaos"
	"prany/internal/consensus"
	"prany/internal/core"
	"prany/internal/history"
	"prany/internal/kvstore"
	"prany/internal/obs"
	"prany/internal/opcheck"
	"prany/internal/wal"
	"prany/internal/wire"
)

// CoordID is the coordinator site's identifier in every checked cluster.
const CoordID wire.SiteID = "coord"

// PartDecl declares one participant site of the checked cluster.
type PartDecl struct {
	ID    wire.SiteID
	Proto wire.Protocol
}

// Config fixes the cluster shape and fault budget one exploration covers.
type Config struct {
	// Strategy and Native select the coordinator integration under test
	// (Native only matters for U2PC/C2PC; default PrN).
	Strategy core.Strategy
	Native   wire.Protocol
	// Parts declares the participants. Default: pa running PrA and pc
	// running PrC — the smallest mix where both straw men break.
	Parts []PartDecl
	// Txns is the workload length: sequential transactions over disjoint
	// keys, so executions never block on locks. Default 2 — enough for
	// cross-transaction interleavings (one draining while the next runs).
	Txns int
	// MaxSkip bounds the skip count of single-crash-point plans: skip k
	// fires the point on its (k+1)-th matching protocol step, reaching the
	// same window in a later transaction. Zero means the default bound 1;
	// negative restricts the budget to skip-0 plans. Resolved by
	// effectiveMaxSkip, never rewritten in place (the zero sentinel must
	// survive repeated defaulting).
	MaxSkip int
	// ConvergeRounds bounds the final drain-and-tick convergence of each
	// maximal schedule. Must exceed the participants' idle-abort tick
	// count (5). Default 8.
	ConvergeRounds int
	// MaxStatesPerPlan is a runaway valve; exceeding it marks the result
	// truncated. Default 300000.
	MaxStatesPerPlan int
	// StopAtFirst ends the exploration at the first counterexample.
	StopAtFirst bool
	// Acceptors, when positive, replicates the decision step: the cluster
	// gains dedicated acceptor sites a1..aN, the coordinator fixes outcomes
	// through a PaxosDecider over them, and blocked participants escalate
	// their inquiries to the acceptor set. Zero keeps the single decider —
	// and leaves every existing schedule, hash and verdict untouched.
	Acceptors int
	// CoordDown makes every coordinator crash permanent: the coordinator is
	// never recovered, neither as a schedule choice nor by convergence. This
	// is the failure model of the E19 claim — under it the single decider
	// leaves prepared participants blocked in doubt forever, while the
	// replicated decider must terminate every one of them.
	CoordDown bool
	// Adversary, when set, makes one site Byzantine (chaos.Adversary). Its
	// send-side behaviors (vote flips, inquiry lies, suppressed forces) run
	// always-on as a deterministic automaton; its delivery-side behaviors
	// (forged acks, lying inquiry answers) are schedule choices — each
	// `byz:SRC>DST` action is one discrete lie, so BFS counterexamples are
	// minimal in lies as well as in depth. Nil leaves every schedule, hash
	// and verdict of the honest sweeps bit-identical.
	Adversary *chaos.Adversary
	// Obs, when set, receives the engines' trace events during exploration
	// or replay — ReplayTraced uses it to render a counterexample's per-txn
	// timeline. Event recording never feeds back into the engines, so state
	// hashing and schedule determinism are unaffected.
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Parts == nil {
		c.Parts = []PartDecl{{ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC}}
	}
	if c.Strategy != core.StrategyPrAny && !c.Native.ParticipantProtocol() {
		c.Native = wire.PrN
	}
	if c.Txns <= 0 {
		c.Txns = 2
	}
	if c.ConvergeRounds <= 0 {
		c.ConvergeRounds = 8
	}
	if c.MaxStatesPerPlan <= 0 {
		c.MaxStatesPerPlan = 300000
	}
	return c
}

// Label names the checked strategy, e.g. "PrAny" or "U2PC/PrN"; replicated
// and permanent-coordinator-death configurations carry suffixes, e.g.
// "PrAny+paxos3+coorddown".
func (c Config) Label() string {
	label := "PrAny"
	if c.Strategy != core.StrategyPrAny {
		native := c.Native
		if !native.ParticipantProtocol() {
			native = wire.PrN
		}
		label = c.Strategy.String() + "/" + native.String()
	}
	if c.Acceptors > 0 {
		label += fmt.Sprintf("+paxos%d", c.Acceptors)
	}
	if c.CoordDown {
		label += "+coorddown"
	}
	if c.Adversary != nil {
		label += "+byz=" + c.Adversary.Encode()
	}
	return label
}

// acceptorIDs names the dedicated acceptor sites a1..aN; the slice order
// fixes each acceptor's takeover ballot slot, like sim.AcceptorIDs.
func acceptorIDs(n int) []wire.SiteID {
	out := make([]wire.SiteID, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, wire.SiteID(fmt.Sprintf("a%d", i)))
	}
	return out
}

// serialSched is the core.Scheduler that pins engine concurrency to the
// checker goroutine.
type serialSched struct{}

func (serialSched) Serial() bool { return true }

// armedPlan tracks which of a plan's crash points already fired, with the
// same skip-countdown semantics as the chaos engine.
type armedPlan struct {
	points []chaos.CrashPoint
	fired  []bool
	remain []int
}

func newArmedPlan(points []chaos.CrashPoint) *armedPlan {
	p := &armedPlan{
		points: points,
		fired:  make([]bool, len(points)),
		remain: make([]int, len(points)),
	}
	for i, cp := range points {
		p.remain[i] = cp.Skip
	}
	return p
}

// match consumes the first armed point the predicate selects (decrementing
// skips on the way) and returns its site.
func (p *armedPlan) match(f func(chaos.CrashPoint) bool) (wire.SiteID, bool) {
	for i, cp := range p.points {
		if p.fired[i] || !f(cp) {
			continue
		}
		if p.remain[i] > 0 {
			p.remain[i]--
			continue
		}
		p.fired[i] = true
		return cp.Site, true
	}
	return "", false
}

// armedAt reports whether any unfired point targets site — the condition
// that disqualifies deliveries to it from the ample set.
func (p *armedPlan) armedAt(site wire.SiteID) bool {
	for i, cp := range p.points {
		if !p.fired[i] && cp.Site == site {
			return true
		}
	}
	return false
}

func (p *armedPlan) digest() string {
	return fmt.Sprintf("plan fired=%v remain=%v", p.fired, p.remain)
}

// vsite is one virtual site: engines, log, store and crash bookkeeping.
type vsite struct {
	id    wire.SiteID
	proto wire.Protocol // participant protocol; unused at the coordinator
	store *wal.MemStore // "disk": survives crashes
	log   *wal.Log
	rm    *kvstore.Store
	part  *core.Participant
	coord *core.Coordinator
	acc   *consensus.Acceptor // replicated-decision acceptor role (a1..aN)
	dead  *atomic.Bool
	down  bool
	// sweep marks a crash that fired mid-step: the log/RM cleanup and the
	// crash event are deferred to sweepCrashes, which runs after the
	// triggering action unwinds (Log.Crash needs the log mutex the
	// triggering append may still hold).
	sweep bool
}

// qkey identifies one directed FIFO message queue.
type qkey struct{ from, to wire.SiteID }

// dphase is the driver's position in the current transaction.
type dphase uint8

const (
	dIdle     dphase = iota
	dExecWait        // execs sent; awaiting every reply
	dVoting          // Begin done; votes in flight
	dDone            // workload exhausted
	// dDeciding is appended after dDone so single-decider state hashes keep
	// their phase numbering: a replicated decision is in flight and the
	// driver polls Resolve until the acceptor quorum fixes it.
	dDeciding
)

// txnResult records how the driver saw one transaction end.
type txnResult struct {
	txn     wire.TxnID
	outcome wire.Outcome
	status  string // decided | abandoned | error
}

// driver is the deterministic transaction manager.
type driver struct {
	next    int // 1-based sequence of the next transaction to start
	phase   dphase
	txn     wire.TxnID
	await   map[wire.SiteID]bool
	execErr bool
	results []txnResult
}

// episode is one full cluster execution in progress.
type episode struct {
	cfg        Config
	plan       *armedPlan
	hist       *history.Recorder
	pcp        *core.PCP
	sites      map[wire.SiteID]*vsite
	order      []wire.SiteID // coordinator first, then declaration order
	acceptors  []wire.SiteID // a1..aN when the decision is replicated
	queues     map[qkey][]wire.Message
	drv        driver
	ampleSteps int
	err        error
	// adv is the Byzantine automaton (nil for honest configs); advArmed is
	// true only while an adversarial `byz:` delivery choice is applied — the
	// window in which ObserveDeliver may forge.
	adv      *chaos.AdvState
	advArmed bool
}

func newEpisode(cfg Config, points []chaos.CrashPoint) *episode {
	ep := &episode{
		cfg:       cfg,
		plan:      newArmedPlan(points),
		hist:      history.NewRecorder(),
		pcp:       core.NewPCP(),
		sites:     make(map[wire.SiteID]*vsite, len(cfg.Parts)+1+cfg.Acceptors),
		acceptors: acceptorIDs(cfg.Acceptors),
		queues:    make(map[qkey][]wire.Message),
		drv:       driver{next: 1},
	}
	if cfg.Adversary != nil {
		ep.adv = chaos.NewAdvState(*cfg.Adversary)
	}
	for _, p := range cfg.Parts {
		ep.pcp.Set(p.ID, p.Proto)
	}
	ep.addSite(CoordID, 0)
	for _, p := range cfg.Parts {
		ep.addSite(p.ID, p.Proto)
	}
	for _, id := range ep.acceptors {
		ep.addSite(id, 0)
	}
	if ep.err == nil {
		ep.settle()
	}
	return ep
}

func (ep *episode) isAcceptor(id wire.SiteID) bool {
	for _, a := range ep.acceptors {
		if a == id {
			return true
		}
	}
	return false
}

func (ep *episode) addSite(id wire.SiteID, proto wire.Protocol) {
	vs := &vsite{id: id, proto: proto, store: wal.NewMemStore()}
	if id != CoordID && !ep.isAcceptor(id) {
		vs.rm = kvstore.New()
	}
	ep.sites[id] = vs
	ep.order = append(ep.order, id)
	if err := ep.boot(vs, false); err != nil && ep.err == nil {
		ep.err = err
	}
}

// boot (re)starts a site's engines over its surviving store; recovered
// runs the post-crash log analysis, like site.Site's restart path.
func (ep *episode) boot(vs *vsite, recovered bool) error {
	log, err := wal.Open(&detStore{ep: ep, site: vs.id, inner: vs.store})
	if err != nil {
		return fmt.Errorf("mcheck: opening %s log: %w", vs.id, err)
	}
	vs.log = log
	vs.dead = &atomic.Bool{}
	env := core.Env{
		ID:    vs.id,
		Log:   log,
		Send:  ep.send,
		Hist:  ep.hist,
		Dead:  vs.dead,
		Sched: serialSched{},
		Obs:   ep.cfg.Obs,
	}
	switch {
	case vs.id == CoordID:
		coordCfg := core.CoordinatorConfig{
			Strategy: ep.cfg.Strategy,
			Native:   ep.cfg.Native,
		}
		if len(ep.acceptors) > 0 {
			accs := ep.acceptors
			coordCfg.NewDecider = func(denv core.Env) core.Decider {
				return consensus.NewPaxosDecider(denv, accs)
			}
		}
		vs.coord = core.NewCoordinator(env, coordCfg, ep.pcp)
		vs.part, vs.acc = nil, nil
	case ep.isAcceptor(vs.id):
		vs.acc = consensus.NewAcceptor(env, ep.acceptors)
		vs.coord, vs.part = nil, nil
	default:
		vs.part = core.NewParticipant(env, vs.proto, vs.rm, false)
		if len(ep.acceptors) > 0 {
			vs.part.SetAcceptors(ep.acceptors)
		}
		vs.coord, vs.acc = nil, nil
	}
	if recovered && (len(log.Records()) > 0 || vs.acc != nil) {
		// An acceptor recovers even over an empty log: Recover also asks its
		// peers for state transfer, the path a rebooted replica catches up by.
		if vs.part != nil {
			if err := vs.part.Recover(); err != nil {
				return fmt.Errorf("mcheck: recovering %s: %w", vs.id, err)
			}
		}
		if vs.coord != nil {
			if err := vs.coord.Recover(); err != nil {
				return fmt.Errorf("mcheck: recovering %s: %w", vs.id, err)
			}
		}
		if vs.acc != nil {
			if err := vs.acc.Recover(); err != nil {
				return fmt.Errorf("mcheck: recovering %s: %w", vs.id, err)
			}
		}
	}
	return nil
}

// detStore intercepts appends for the armed crash points, mirroring the
// chaos Store semantics — minus the asynchronous crasher: the fail-stop is
// marked inline (dead flag, queues dropped) and the cleanup deferred to
// the sweep.
type detStore struct {
	ep    *episode
	site  wire.SiteID
	inner wal.Store
}

func (s *detStore) Load() ([]wal.Record, error) { return s.inner.Load() }
func (s *detStore) Rewrite(recs []wal.Record) error {
	return s.inner.Rewrite(recs)
}
func (s *detStore) Close() error { return s.inner.Close() }

func (s *detStore) Append(recs []wal.Record) error {
	vs := s.ep.sites[s.site]
	if vs.down {
		return chaos.ErrInjectedCrash // a dead site writes nothing
	}
	if s.ep.adv != nil && s.ep.adv.SuppressAppend(s.site, recs) {
		// The equivocating site swallows its own force: success reported,
		// nothing written — and no force-edge crash point can match a force
		// that never reached the disk (same ordering as the chaos Store).
		return nil
	}
	if _, ok := s.ep.plan.match(func(cp chaos.CrashPoint) bool {
		return cp.Edge == chaos.BeforeForce && cp.Site == s.site && cp.MatchesRecords(recs)
	}); ok {
		s.ep.trip(vs)
		return chaos.ErrInjectedCrash
	}
	if _, ok := s.ep.plan.match(func(cp chaos.CrashPoint) bool {
		return cp.Edge == chaos.AfterForce && cp.Site == s.site && cp.MatchesRecords(recs)
	}); ok {
		if err := s.inner.Append(recs); err != nil {
			return err
		}
		s.ep.trip(vs)
		return nil
	}
	return s.inner.Append(recs)
}

// trip fail-stops a site at the current protocol step. The dead flag
// suppresses everything the unwinding handler would still do (sends, log
// writes, events), and inbound queues drop — a dead site consumes and
// ignores. Messages it already handed to the network stay in flight, like
// a mailbox transport. The heavyweight cleanup waits for sweepCrashes.
func (ep *episode) trip(vs *vsite) {
	if vs.down {
		return
	}
	vs.down = true
	vs.sweep = true
	vs.dead.Store(true)
	for k := range ep.queues {
		if k.to == vs.id {
			delete(ep.queues, k)
		}
	}
}

// sweepCrashes finishes crashes tripped mid-step: the unforced log tail is
// lost, the RM's volatile transaction state dropped, the crash recorded.
func (ep *episode) sweepCrashes() {
	for _, id := range ep.order {
		vs := ep.sites[id]
		if !vs.sweep {
			continue
		}
		vs.sweep = false
		vs.log.Crash()
		if vs.rm != nil {
			vs.rm.Crash()
		}
		ep.hist.Record(history.Event{Kind: history.EvCrash, Site: id})
	}
}

// send is every engine's (and the driver's) outbound path: on-send crash
// points fire here, traffic to or from a down site is lost, everything
// else joins the directed FIFO queue. The Byzantine site's surviving
// outbound messages pass through its automaton last — the process lies, the
// network stays honest — and any forged extras (replayed acks) join the
// queues directly, never re-entering the automaton.
func (ep *episode) send(m wire.Message) {
	if site, ok := ep.plan.match(func(cp chaos.CrashPoint) bool { return cp.MatchesSend(m) }); ok {
		ep.trip(ep.sites[site]) // the message dies with its sender
		return
	}
	if from := ep.sites[m.From]; from == nil || from.down {
		return
	}
	var extra []wire.Message
	if ep.adv != nil && m.From == ep.adv.Site() {
		m, extra = ep.adv.RewriteSend(m)
	}
	ep.push(m)
	for _, f := range extra {
		ep.push(f)
	}
}

// push appends one message to its directed queue (dropped if the
// destination is down or unknown).
func (ep *episode) push(m wire.Message) {
	to := ep.sites[m.To]
	if to == nil || to.down {
		return
	}
	k := qkey{m.From, m.To}
	ep.queues[k] = append(ep.queues[k], m)
}

func (ep *episode) sortedQueueKeys() []qkey {
	keys := make([]qkey, 0, len(ep.queues))
	for k := range ep.queues {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	return keys
}

// deliver pops the head of queue k and hands it to the destination —
// unless an on-deliver crash point consumes it. An armed adversarial
// delivery lets the Byzantine automaton observe the message first (and
// forge in response) *before* any crash can consume it: the adversary's
// wire persona outlives its process.
func (ep *episode) deliver(k qkey) {
	q := ep.queues[k]
	m := q[0]
	if len(q) == 1 {
		delete(ep.queues, k)
	} else {
		ep.queues[k] = q[1:]
	}
	if ep.advArmed && ep.adv != nil && k.to == ep.adv.Site() {
		for _, f := range ep.adv.ObserveDeliver(m) {
			ep.push(f)
		}
	}
	if site, ok := ep.plan.match(func(cp chaos.CrashPoint) bool { return cp.MatchesDeliver(k.to, m) }); ok {
		ep.trip(ep.sites[site]) // consumed by the crash
		return
	}
	vs := ep.sites[k.to]
	if vs.down {
		return
	}
	ep.route(vs, m)
}

func (ep *episode) route(vs *vsite, m wire.Message) {
	switch m.Kind {
	case wire.MsgExecReply:
		ep.driverReply(m)
	case wire.MsgVote, wire.MsgAck:
		if vs.coord != nil {
			vs.coord.Handle(m)
		}
	case wire.MsgInquiry:
		// Unlike site.Site, roles here are disjoint: an escalated inquiry
		// lands on a dedicated acceptor site, a first-resort one on the
		// coordinator.
		if vs.acc != nil {
			vs.acc.Handle(m)
		} else if vs.coord != nil {
			vs.coord.Handle(m)
		}
	case wire.MsgExec, wire.MsgPrepare, wire.MsgDecision:
		if vs.part != nil {
			vs.part.Handle(m)
		}
	case wire.MsgVoteForward, wire.MsgPhase1a, wire.MsgPhase2a,
		wire.MsgPaxosEnd, wire.MsgSyncRequest, wire.MsgSyncState:
		if vs.acc != nil {
			vs.acc.Handle(m)
		}
	case wire.MsgPhase1b, wire.MsgPhase2b:
		// A phase reply answers whichever leader asked: the coordinator's
		// decider or an acceptor takeover. Both filter by ballot and
		// transaction.
		if vs.acc != nil {
			vs.acc.Handle(m)
		}
		if vs.coord != nil {
			vs.coord.Handle(m)
		}
	case wire.MsgRecoverSite:
		// Site.handle's routing: a CL participant's announcement (carries
		// its protocol) goes to the coordinator role, a coordinator's echo
		// to the participant role. CL sites are out of scope here, but a
		// replayed plan should not silently drop one.
		if m.Proto.ParticipantProtocol() {
			if vs.coord != nil {
				vs.coord.Handle(m)
			}
		} else if vs.part != nil {
			vs.part.Handle(m)
		}
	}
}

// settle runs the deterministic closure after every schedule choice:
// pending crash cleanup, driver progress, and ample deliveries, until the
// episode is stable modulo the remaining genuine choices.
func (ep *episode) settle() {
	for guard := 0; guard < 1<<20; guard++ {
		ep.sweepCrashes()
		if ep.driverStep() {
			continue
		}
		if ep.ampleStep() {
			continue
		}
		return
	}
	ep.err = fmt.Errorf("mcheck: settle did not converge")
}

// ampleStep applies the partial-order reduction: a queue head of a
// commutative kind addressed to a site with no armed crash point is
// delivered immediately instead of becoming a schedule choice. EXEC,
// EXEC-REPLY and PREPARE qualify: they touch only their target's state and
// the driver's await set, record no judged history events (votes are not
// read by any checker), and their interaction with the vote timeout
// commutes — an undelivered VOTE, not an undelivered PREPARE, is what the
// timeout races. DESIGN.md §9 has the full argument.
func (ep *episode) ampleStep() bool {
	for _, k := range ep.sortedQueueKeys() {
		m := ep.queues[k][0]
		if !ampleKind(m.Kind) {
			continue
		}
		if ep.plan.armedAt(k.to) {
			continue
		}
		ep.ampleSteps++
		ep.deliver(k)
		return true
	}
	return false
}

func ampleKind(k wire.MsgKind) bool {
	return k == wire.MsgExec || k == wire.MsgExecReply || k == wire.MsgPrepare
}

// driverStep advances the deterministic transaction manager one move;
// reports whether anything changed.
func (ep *episode) driverStep() bool {
	d := &ep.drv
	coord := ep.sites[CoordID]
	switch d.phase {
	case dIdle:
		if d.next > ep.cfg.Txns {
			d.phase = dDone
			return false
		}
		if coord.down {
			if ep.cfg.CoordDown {
				// The coordinator never returns: the remaining workload is
				// unreachable and the schedule ends here.
				d.phase = dDone
			}
			return false // otherwise the next transaction waits for recovery
		}
		txn := wire.TxnID{Coord: CoordID, Seq: uint64(d.next)}
		d.next++
		d.txn = txn
		d.phase = dExecWait
		d.execErr = false
		d.await = make(map[wire.SiteID]bool, len(ep.cfg.Parts))
		for i, p := range ep.cfg.Parts {
			d.await[p.ID] = true
			ep.send(wire.Message{
				Kind: wire.MsgExec, Txn: txn, From: CoordID, To: p.ID,
				Ops: []wire.Op{{
					Kind:  wire.OpPut,
					Key:   fmt.Sprintf("k%d-%d", txn.Seq, i),
					Value: fmt.Sprintf("v%d", txn.Seq),
				}},
			})
		}
		return true

	case dExecWait:
		if coord.down {
			ep.abandon(false)
			return true
		}
		if len(d.await) == 0 {
			if d.execErr {
				ep.abandon(true)
				return true
			}
			parts := make([]wire.SiteID, 0, len(ep.cfg.Parts))
			for _, p := range ep.cfg.Parts {
				parts = append(parts, p.ID)
			}
			if err := coord.coord.Begin(d.txn, parts); err != nil {
				// Only a crash point on the initiation force gets here: no
				// decision was communicated, nobody prepared.
				d.results = append(d.results, txnResult{txn: d.txn, outcome: wire.Abort, status: "error"})
				d.await = nil
				d.phase = dIdle
				return true
			}
			d.phase = dVoting
			return true
		}
		if ep.execStuck() {
			// Some awaited reply can never arrive (participant down, exec
			// lost with a crash): the exec timeout, taken eagerly.
			ep.abandon(true)
			return true
		}
		return false

	case dVoting:
		if coord.down {
			ep.abandon(false)
			return true
		}
		open, done := coord.coord.VoteStatus(d.txn)
		if !open || done {
			// Every vote arrived (or the phase ended another way): resolve
			// now. When a vote was lost to a crash the phase stays open and
			// only the vote-timeout *choice* (or convergence, which models
			// the timer finally firing) ends it — deliberately a schedule
			// branch, because the timeout races the crashed participant's
			// recovery inquiry.
			ep.resolveTxn()
			return true
		}
		return false

	case dDeciding:
		if coord.down {
			ep.abandon(false)
			return true
		}
		out, err := coord.coord.Resolve(d.txn)
		if errors.Is(err, core.ErrDecidePending) {
			return false // the acceptor round is still in flight
		}
		status := "decided"
		if err != nil {
			status = "error"
		}
		d.results = append(d.results, txnResult{txn: d.txn, outcome: out, status: status})
		d.await = nil
		d.phase = dIdle
		return true
	}
	return false
}

// execStuck reports whether some awaited exec reply can no longer arrive.
// With inline execution a reply is in flight iff the reply itself is
// queued, or the exec is still queued to a live participant (delivery
// produces the reply synchronously). A crash anywhere on that path — the
// participant down with its inbound queue dropped, or the reply lost with
// the sender — loses it for good, and only the driver's exec timeout
// (taken eagerly here; there is nothing it could race) moves on.
func (ep *episode) execStuck() bool {
	d := &ep.drv
	for pid := range d.await {
		if ep.queueHas(qkey{pid, CoordID}, wire.MsgExecReply, d.txn) {
			continue
		}
		if !ep.sites[pid].down && ep.queueHas(qkey{CoordID, pid}, wire.MsgExec, d.txn) {
			continue
		}
		return true
	}
	return false
}

func (ep *episode) queueHas(k qkey, kind wire.MsgKind, txn wire.TxnID) bool {
	for _, m := range ep.queues[k] {
		if m.Kind == kind && m.Txn == txn {
			return true
		}
	}
	return false
}

// driverReply feeds an exec reply to the driver. Late duplicates (a reply
// for an abandoned transaction) are dropped, like site.Txn's reply channel.
func (ep *episode) driverReply(m wire.Message) {
	d := &ep.drv
	if d.phase != dExecWait || m.Txn != d.txn || !d.await[m.From] {
		return
	}
	delete(d.await, m.From)
	if m.Err != "" {
		d.execErr = true
	}
}

// abandon gives up on the current transaction the way site.Txn does on an
// exec failure: abort decisions go to every participant (when the
// coordinator is alive to send them — it never logged, so its abort is
// implicit), and the driver moves on.
func (ep *episode) abandon(sendAborts bool) {
	d := &ep.drv
	if sendAborts {
		for _, p := range ep.cfg.Parts {
			ep.send(wire.Message{
				Kind: wire.MsgDecision, Txn: d.txn, From: CoordID, To: p.ID, Outcome: wire.Abort,
			})
		}
	}
	d.results = append(d.results, txnResult{txn: d.txn, outcome: wire.Abort, status: "abandoned"})
	d.await = nil
	d.phase = dIdle
}

// resolveTxn ends the voting phase through Coordinator.Resolve and records
// the outcome.
func (ep *episode) resolveTxn() {
	d := &ep.drv
	out, err := ep.sites[CoordID].coord.Resolve(d.txn)
	if errors.Is(err, core.ErrDecidePending) {
		// Replicated decision: the fix-point is an acceptor round, not a log
		// force. The driver polls Resolve (in driverStep) until the quorum
		// answers.
		d.phase = dDeciding
		return
	}
	status := "decided"
	if err != nil {
		status = "error" // a crash point on the decision force
	}
	d.results = append(d.results, txnResult{txn: d.txn, outcome: out, status: status})
	d.await = nil
	d.phase = dIdle
}

// recoverSite restarts a crashed site: engines are rebuilt over the
// surviving store and the participant recovery procedure (re-prepare,
// inquiries) runs, exactly like site.Site.Recover.
func (ep *episode) recoverSite(id wire.SiteID) error {
	vs := ep.sites[id]
	vs.down = false
	if err := ep.boot(vs, true); err != nil {
		return err
	}
	return nil
}

// choiceActions returns the schedule choices enabled after settling:
// non-ample queue heads, the vote timeout while votes are outstanding, and
// recovery of each down site. Empty means the schedule is maximal.
func (ep *episode) choiceActions() []action {
	if ep.err != nil {
		return nil
	}
	var out []action
	for _, k := range ep.sortedQueueKeys() {
		out = append(out, deliverAction(k.from, k.to))
		// An adversarial delivery is a separate choice only where it differs
		// from the honest one — delivering this head may trigger a forgery.
		if ep.adv != nil && k.to == ep.adv.Site() && ep.adv.DeliveryChoice(ep.queues[k][0].Kind) {
			out = append(out, byzDeliverAction(k.from, k.to))
		}
	}
	coord := ep.sites[CoordID]
	if ep.drv.phase == dVoting && !coord.down {
		if open, done := coord.coord.VoteStatus(ep.drv.txn); open && !done {
			out = append(out, voteTimeoutAction)
		}
	}
	for _, id := range ep.order {
		if id == CoordID && ep.cfg.CoordDown {
			continue // a permanent coordinator death is never recovered
		}
		if ep.sites[id].down {
			out = append(out, recoverAction(id))
		}
	}
	return out
}

// apply performs one schedule choice followed by the deterministic
// settlement. It validates the action against the current state so a
// stale or hand-edited replay fails loudly instead of silently diverging.
func (ep *episode) apply(a action) error {
	if ep.err != nil {
		return ep.err
	}
	kind, arg1, arg2, err := a.parts()
	if err != nil {
		ep.err = err
		return err
	}
	switch kind {
	case actDeliver:
		k := qkey{arg1, arg2}
		if len(ep.queues[k]) == 0 {
			ep.err = fmt.Errorf("mcheck: schedule diverged: no message queued %s>%s", arg1, arg2)
			return ep.err
		}
		ep.deliver(k)
	case actByzDeliver:
		k := qkey{arg1, arg2}
		if ep.adv == nil || arg2 != ep.adv.Site() {
			ep.err = fmt.Errorf("mcheck: schedule diverged: byz:%s>%s without a matching adversary", arg1, arg2)
			return ep.err
		}
		if len(ep.queues[k]) == 0 {
			ep.err = fmt.Errorf("mcheck: schedule diverged: no message queued %s>%s", arg1, arg2)
			return ep.err
		}
		if !ep.adv.DeliveryChoice(ep.queues[k][0].Kind) {
			ep.err = fmt.Errorf("mcheck: schedule diverged: byz delivery of %s is not an adversary choice", ep.queues[k][0].Kind)
			return ep.err
		}
		ep.advArmed = true
		ep.deliver(k)
		ep.advArmed = false
	case actVoteTimeout:
		coord := ep.sites[CoordID]
		if ep.drv.phase != dVoting || coord.down {
			ep.err = fmt.Errorf("mcheck: schedule diverged: vt outside an open voting phase")
			return ep.err
		}
		if open, _ := coord.coord.VoteStatus(ep.drv.txn); !open {
			ep.err = fmt.Errorf("mcheck: schedule diverged: vt after resolution")
			return ep.err
		}
		ep.resolveTxn()
	case actRecover:
		vs := ep.sites[arg1]
		if vs == nil || !vs.down {
			ep.err = fmt.Errorf("mcheck: schedule diverged: rec:%s while up", arg1)
			return ep.err
		}
		if err := ep.recoverSite(arg1); err != nil {
			ep.err = err
			return err
		}
	}
	ep.settle()
	return ep.err
}

// converge drives a maximal schedule to quiescence the way a chaos episode
// ends: recover whatever is down, drain every queue, tick the timeout
// paths, repeat. Bounded — C2PC clusters never quiesce (the retention
// leak), and are judged as they stand. Reports whether quiescence and
// empty queues were reached.
func (ep *episode) converge() bool {
	for r := 0; r < ep.cfg.ConvergeRounds; r++ {
		ep.recoverDowned()
		ep.drainAll()
		if ep.err != nil {
			return false
		}
		if ep.quiescedNow() {
			return true
		}
		// During convergence all timers fire: a voting phase still open
		// (some vote lost to a crash) resolves by timeout.
		if ep.drv.phase == dVoting && !ep.sites[CoordID].down {
			ep.resolveTxn()
			ep.settle()
			continue
		}
		ep.tickAll()
		ep.drainAll()
		if ep.err != nil {
			return false
		}
	}
	ep.recoverDowned()
	ep.drainAll()
	return ep.quiescedNow()
}

func (ep *episode) recoverDowned() {
	for _, id := range ep.order {
		if id == CoordID && ep.cfg.CoordDown {
			continue // stays dead even through convergence
		}
		if ep.sites[id].down {
			if err := ep.recoverSite(id); err != nil && ep.err == nil {
				ep.err = err
			}
		}
	}
	ep.settle()
}

// drainAll delivers every queued message (sorted order, FIFO per queue)
// with full settlement between deliveries, until nothing is in flight.
func (ep *episode) drainAll() {
	for guard := 0; guard < 1<<20; guard++ {
		ep.sweepCrashes()
		if ep.driverStep() {
			continue
		}
		keys := ep.sortedQueueKeys()
		if len(keys) == 0 {
			return
		}
		ep.deliver(keys[0])
	}
	if ep.err == nil {
		ep.err = fmt.Errorf("mcheck: drain did not converge")
	}
}

func (ep *episode) tickAll() {
	for _, id := range ep.order {
		vs := ep.sites[id]
		if vs.down {
			continue
		}
		if vs.coord != nil {
			vs.coord.Tick()
		}
		if vs.part != nil {
			vs.part.Tick()
		}
		if vs.acc != nil {
			vs.acc.Tick()
		}
	}
}

func (ep *episode) quiescedNow() bool {
	if len(ep.queues) > 0 {
		return false
	}
	for _, id := range ep.order {
		vs := ep.sites[id]
		if vs.down {
			if id == CoordID && ep.cfg.CoordDown {
				continue // permanently dead by the failure model, not stuck
			}
			return false
		}
		if vs.coord != nil && vs.coord.PTSize() > 0 {
			return false
		}
		if vs.part != nil && vs.part.Pending() > 0 {
			return false
		}
		if vs.acc != nil && !vs.acc.Quiesced() {
			return false
		}
	}
	return ep.drv.phase == dDone
}

// blockedNow counts in-doubt transactions stranded at live participants —
// prepared, undecided, with nobody left who will ever answer. Nonzero at a
// converged terminal state is precisely the blocking the paper's single
// coordinator exhibits under permanent death, and what the replicated
// decider exists to eliminate.
func (ep *episode) blockedNow() int {
	n := 0
	for _, id := range ep.order {
		vs := ep.sites[id]
		if vs.down || vs.part == nil {
			continue
		}
		n += len(vs.part.InDoubt())
	}
	return n
}

// judge evaluates Definition 1 over the episode: the history clauses via
// the opcheck judge, plus the live structural state and the final
// checkpoint — the same verdict shape chaos episodes get.
func (ep *episode) judge(quiesced bool) *opcheck.Report {
	r := opcheck.JudgeEvents(ep.hist.Events())
	r.Quiesced = quiesced
	if ep.cfg.CoordDown && ep.sites[CoordID].down {
		// A permanently dead coordinator can never delete its protocol-table
		// entries: its decide-without-delete history is the failure model,
		// not a retention leak. What matters under this model is clause 1
		// (atomicity) and that no live participant stays blocked.
		r.Retained = nil
	}
	for _, id := range ep.order {
		vs := ep.sites[id]
		if vs.down {
			continue // a dead site's structural state is unreadable
		}
		if vs.coord != nil {
			r.PTLeft += vs.coord.PTSize()
		}
		if vs.part != nil {
			r.PendingLeft += vs.part.Pending()
		}
	}
	for _, id := range ep.order {
		vs := ep.sites[id]
		if vs.down {
			continue
		}
		n, err := vs.log.Checkpoint(func(rec wal.Record) bool {
			if rec.Kind == wal.KRecCheckpoint {
				return false // snapshot bookkeeping, never protocol state
			}
			if rec.Role == wal.RoleAcceptor {
				return vs.acc != nil && vs.acc.LiveRecord(rec)
			}
			if rec.Role == wal.RoleCoord {
				return vs.coord != nil && vs.coord.Live(rec.Txn)
			}
			return vs.part != nil && vs.part.Live(rec.Txn)
		}, nil)
		if err != nil && r.CheckpointErr == nil {
			r.CheckpointErr = err
		}
		r.Collected += n
		for _, rec := range vs.log.Records() {
			// Acceptor tombstones are retained forever by design (DESIGN.md
			// §13): a decided consensus instance must answer late inquirers
			// after every participant forgot. They are the replicated
			// analogue of PrC's forgotten-means-committed presumption, not
			// clause-3 garbage.
			if rec.Kind != wal.KRecCheckpoint && rec.Role != wal.RoleAcceptor {
				r.StableLeft++
			}
		}
	}
	return r
}

// stateHash digests everything that can influence the episode's future:
// armed-plan state, per-site engine tables, stable+buffered logs, RM
// snapshots, queues, driver state, and the canonical history (see
// canonicalHistory). Two prefixes with equal hashes have identical
// futures and identical verdicts, so the explorer merges them.
func (ep *episode) stateHash() [32]byte {
	var b strings.Builder
	b.WriteString(ep.plan.digest())
	for _, id := range ep.order {
		vs := ep.sites[id]
		fmt.Fprintf(&b, "\n=site %s down=%v sweep=%v\n", id, vs.down, vs.sweep)
		if !vs.down {
			if vs.coord != nil {
				b.WriteString(vs.coord.DebugState())
			}
			if vs.part != nil {
				b.WriteString(vs.part.DebugState())
			}
			if vs.acc != nil {
				b.WriteString(vs.acc.DebugState())
			}
		}
		for _, rec := range vs.log.All() {
			if rec.Kind == wal.KRecCheckpoint {
				// Snapshot records are derived bookkeeping: two states that
				// differ only in them have identical futures, so hashing
				// them would break state merging for no discriminating power.
				continue
			}
			fmt.Fprintf(&b, "\nlog %d.%d %s %s w=%d p=%d",
				rec.Kind, rec.Role, rec.Txn, rec.Coord, len(rec.Writes), len(rec.Participants))
		}
		if vs.rm != nil {
			snap := vs.rm.Snapshot()
			keys := make([]string, 0, len(snap))
			for k := range snap {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "\nrm %s=%s", k, snap[k])
			}
			for seq := 1; seq <= ep.cfg.Txns; seq++ {
				txn := wire.TxnID{Coord: CoordID, Seq: uint64(seq)}
				fmt.Fprintf(&b, "\npending %s=%v", txn, vs.rm.Pending(txn))
			}
		}
	}
	for _, k := range ep.sortedQueueKeys() {
		fmt.Fprintf(&b, "\nq %s>%s", k.from, k.to)
		for _, m := range ep.queues[k] {
			fmt.Fprintf(&b, " %s/%s/%d/%d/%q/%d", m.Kind, m.Txn, m.Outcome, m.Vote, m.Err, len(m.Writes))
		}
	}
	d := &ep.drv
	await := make([]string, 0, len(d.await))
	for id := range d.await {
		await = append(await, string(id))
	}
	sort.Strings(await)
	fmt.Fprintf(&b, "\ndrv phase=%d next=%d txn=%s await=%v execErr=%v results=%v",
		d.phase, d.next, d.txn, await, d.execErr, d.results)
	if ep.adv != nil {
		// Two prefixes leaving different adversary memory lie differently in
		// the future: never merge them. Honest configs hash exactly as before.
		b.WriteString("\nbyz " + ep.adv.Digest())
	}
	b.WriteString(canonicalHistory(ep.hist.Events()))
	return sha256.Sum256([]byte(b.String()))
}

// canonicalHistory digests the judged projection of the event history for
// state hashing. Raw sequence numbers are dropped — two prefixes reaching
// the same protocol state may differ in how many events got there — which
// is sound because every checker compares sequence numbers only *within*
// one transaction, and the per-transaction relative order is preserved
// here. Kinds no checker reads (votes, inquiries, crashes, recoveries)
// are excluded for the same reason.
func canonicalHistory(events []history.Event) string {
	per := make(map[wire.TxnID][]string)
	var order []wire.TxnID
	for _, e := range events {
		switch e.Kind {
		case history.EvDecide, history.EvDeletePT, history.EvRespond, history.EvEnforce, history.EvForget:
		default:
			continue
		}
		if e.Txn.IsZero() {
			continue
		}
		if _, ok := per[e.Txn]; !ok {
			order = append(order, e.Txn)
		}
		per[e.Txn] = append(per[e.Txn], fmt.Sprintf("%s.%s.%d.%s", e.Kind, e.Site, e.Outcome, e.Peer))
	}
	sort.Slice(order, func(i, j int) bool { return order[i].String() < order[j].String() })
	var b strings.Builder
	for _, t := range order {
		fmt.Fprintf(&b, "\nh %s %s", t, strings.Join(per[t], ","))
	}
	return b.String()
}
