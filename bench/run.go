package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"prany/internal/metrics"
)

// runOpts is how one run of one workload is asked for.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	setups  int    // how many times at least to set the cluster up (the median is setup_s)
	dir     string // scratch directory for WAL files and traces
	// roundTxns, when positive, overrides the workload's frozen round size
	// (the 1-second smoke tests use it; measured runs never do).
	roundTxns int
}

// maxSetups bounds the extra set-ups a run makes while they are cheap: a
// set-up of a few milliseconds is a handful of fsyncs, and only the median
// of many is steady.
const maxSetups = 25

// siteRegs is one site's Registry as read after the measured rounds.
type siteRegs struct {
	c     metrics.SiteCounters
	hists map[metrics.Span]metrics.HistSnapshot
}

// measurement is everything one run observed, in raw form; report.go turns
// it into named metrics.
type measurement struct {
	w *workload

	setupS []float64
	rounds []roundStat
	recs   []txnRec
	lagNS  []int64

	regs         []siteRegs // by node, counters since the end of warm-up
	wallNS       int64      // Σ measured round wall time
	checkpointMS []float64
	logGrowth    int64 // WAL file bytes written during measured rounds
	mallocs      uint64
	gcPauseNS    uint64
	rssMB        float64
	goroutines   int

	recoverMS      float64
	recoverScanned uint64
	retainedPT     int64
	retainedRecs   int

	tr       *tracer
	failures []string       // output-check failures; empty means correct
	txnErrs  map[string]int // why transactions failed, if any did
}

func (m *measurement) attempted() int64 { return int64(len(m.recs)) }

func (m *measurement) failed() int64 {
	var n int64
	for i := range m.recs {
		if !m.recs[i].ok {
			n++
		}
	}
	return n
}

// runWorkload sets the cluster up, warms it, measures for about o.seconds
// in rounds, checks the outputs (before and after a crash and recovery of
// every site) and tears everything down.
func runWorkload(w *workload, o runOpts) (*measurement, error) {
	m := &measurement{w: w}
	dir := filepath.Join(o.dir, fmt.Sprintf("run-%d-%s", os.Getpid(), w.Name))
	roundTxns := w.RoundTxns
	if o.roundTxns > 0 {
		roundTxns = o.roundTxns
	}

	// Set-up, several times over: listeners, stores, sites, link warm-up,
	// plan generation, key preload. The last cluster is the one measured.
	var c *cluster
	var d *driver
	var setupTotal time.Duration
	another := func(i int) bool {
		if i < o.setups {
			return true
		}
		// Cheap set-ups are repeated further: see maxSetups.
		return o.setups > 1 && i < maxSetups && setupTotal < time.Second
	}
	for i := 0; another(i); i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		if o.traced {
			m.tr = newTracer(w, 1+len(partIDs))
		}
		var err error
		if c, err = newCluster(w, dir, m.tr); err != nil {
			return nil, err
		}
		d = newDriver(c, w, o.seed)
		if err := d.preload(); err != nil {
			c.close()
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		setupTotal += time.Since(t0)
	}
	defer c.close()

	// settle ends a round: the cluster quiesces — the shims keep counting
	// until it has, since acks and decision forces trail the last Commit —
	// and then, outside the measured window, every site checkpoints.
	settle := func(checkpoint bool) error {
		if err := c.quiesce(); err != nil {
			return err
		}
		if m.tr != nil {
			m.tr.on.Store(false)
		}
		if checkpoint {
			dur, err := c.checkpoint()
			if err != nil {
				return err
			}
			m.checkpointMS = append(m.checkpointMS, float64(dur)/1e6)
		}
		return nil
	}

	// Round 0 is warm-up and is discarded.
	if w.Open {
		d.openPhase(o.seed+1, w.WarmSeconds, false)
	} else {
		d.closedRound(roundTxns/2, 0, false)
	}
	if err := settle(true); err != nil {
		return nil, err
	}
	m.checkpointMS = m.checkpointMS[:0]
	for _, n := range c.nodes {
		n.met.Reset()
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Measured rounds: fixed work each, as many as fit in o.seconds. Between
	// rounds the clients stop, the cluster quiesces and every site
	// checkpoints, outside the measured window.
	budget := time.Duration(o.seconds * float64(time.Second))
	for {
		bytes0 := c.logBytes()
		if m.tr != nil {
			m.tr.on.Store(true)
		}
		if w.Open {
			m.rounds = d.openPhase(o.seed, o.seconds, true)
			m.wallNS = int64(budget)
		} else {
			rs := d.closedRound(roundTxns, len(m.rounds), true)
			m.rounds = append(m.rounds, rs)
			m.wallNS += int64(rs.wall)
		}
		m.logGrowth += c.logBytes() - bytes0
		done := w.Open || time.Duration(m.wallNS) >= budget
		if err := settle(!done); err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	m.recs = d.measuredRecs()
	m.lagNS, m.txnErrs = d.lagNS, d.errs
	for _, n := range c.nodes {
		sr := siteRegs{c: n.met.Site(n.id), hists: make(map[metrics.Span]metrics.HistSnapshot)}
		for _, sp := range metrics.Spans() {
			sr.hists[sp] = n.met.Hist(sp)
		}
		m.regs = append(m.regs, sr)
	}

	// Output check, then crash every site, recover from the same stores
	// (the logs still hold the last round) and check again.
	m.failures = append(m.failures, checkQuiet(c, "after the last round")...)
	m.failures = append(m.failures, checkData(d, "after the last round")...)
	dur, err := c.restart()
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	m.recoverMS = float64(dur) / 1e6
	for _, n := range c.nodes {
		m.recoverScanned += n.met.Site(n.id).RecoveryScanned
	}
	if err := settle(true); err != nil {
		return nil, fmt.Errorf("after recovery: %w", err)
	}
	m.failures = append(m.failures, checkQuiet(c, "after recovery")...)
	m.failures = append(m.failures, checkData(d, "after recovery")...)
	m.retainedPT, m.retainedRecs = c.retained()
	if m.retainedRecs != 0 {
		m.failures = append(m.failures, fmt.Sprintf("logs retain %d protocol records after the final checkpoint", m.retainedRecs))
	}

	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	c.close()
	time.Sleep(10 * time.Millisecond) // let closed connections' goroutines exit
	m.goroutines = runtime.NumGoroutine()
	sort.Float64s(m.setupS)
	return m, nil
}
