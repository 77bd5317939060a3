package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prany/internal/wire"
)

// txnRec is what a client records about one transaction: the clock at each
// call boundary (ns since the run's base), nothing else. Every end-to-end
// latency and every client-side span is derived from these after the run.
type txnRec struct {
	seq     uint64 // the coordinator-issued TxnID.Seq
	round   int32  // which measured round (open loop: which slice of the window)
	due     int64  // open loop: when the arrival was due; closed loop: = start
	start   int64  // Begin called
	begun   int64  // Begin returned
	exec    [3][2]int64
	nexec   uint8
	commit0 int64 // Commit called
	end     int64 // Commit returned
	abort   bool  // planned outcome is abort
	ok      bool  // no error and outcome as planned
	refused bool  // open loop: over the in-flight cap, never started
}

// roundStat is one measured round (closed loop) or one slice of the
// measured window (open loop).
type roundStat struct {
	wall time.Duration
	cpu  time.Duration // process user+sys over the round
}

// openSlices is how many equal slices the open-loop window is cut into, by
// due time, so that it too yields per-round statistics.
const openSlices = 10

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// driver generates load on one cluster from the generated plans.
type driver struct {
	c    *cluster
	w    *workload
	base time.Time

	// Closed loop: per-client state. model[c][slot] is the last value
	// client c committed to ring slot slot ("" = never written, "?" = a
	// failed transaction left it unknown); the three sites get the same
	// key and value, so one model serves all.
	plan  *closedPlan
	step  []int
	model [][]string
	recs  [][]txnRec // measured transactions, per client

	// Open loop.
	openTxns     []openTxn   // every phase's plan; indices are unique across phases
	openDone     []txnRec    // by plan index
	openReads    [][2]string // Get results, by plan index
	measuredFrom int         // plan index the measured window starts at
	lagNS        []int64     // generator lateness of measured arrivals

	errMu sync.Mutex
	errs  map[string]int // what failed transactions reported, by message
}

// fail notes why a transaction failed, for the run's diagnostics.
func (d *driver) fail(out wire.Outcome, err error) {
	msg := "outcome " + out.String() + " instead of the planned one"
	if err != nil {
		msg = err.Error()
	}
	d.errMu.Lock()
	defer d.errMu.Unlock()
	d.errs[msg]++
}

func newDriver(c *cluster, w *workload, seed int64) *driver {
	d := &driver{c: c, w: w, base: time.Now(), errs: make(map[string]int)}
	if c.tr != nil {
		d.base = c.tr.base
	}
	if !w.Open {
		d.plan = newClosedPlan(w, seed)
		d.step = make([]int, w.Clients)
		d.model = make([][]string, w.Clients)
		d.recs = make([][]txnRec, w.Clients)
		for i := range d.model {
			d.model[i] = make([]string, w.Keys)
		}
	}
	return d
}

func (d *driver) now() int64 { return int64(time.Since(d.base)) }

// preload writes every key once through the commit path, so every measured
// Put is an overwrite and prepared records have one size from round one.
func (d *driver) preload() error {
	coord := d.c.coord()
	load := func(keys []string) error {
		ops := make([]wire.Op, len(keys))
		for i, k := range keys {
			ops[i] = wire.Op{Kind: wire.OpPut, Key: k, Value: initValue}
		}
		txn := coord.Begin()
		for _, id := range partIDs {
			if _, err := txn.Exec(id, ops...); err != nil {
				return err
			}
		}
		if out, err := txn.Commit(); err != nil || out != wire.Commit {
			return fmt.Errorf("preload: outcome %v, err %v", out, err)
		}
		return nil
	}
	if d.w.Open {
		keys := make([]string, d.w.Keys)
		for i := range keys {
			keys[i] = hotKey(i)
		}
		return load(keys)
	}
	errs := make([]error, d.w.Clients)
	var wg sync.WaitGroup
	for c := 0; c < d.w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = load(d.plan.keys[c])
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return err
		}
		for i := range d.model[c] {
			d.model[c][i] = initValue
		}
	}
	return nil
}

// closedRound runs n transactions from the closed-loop clients: each client
// begins its next transaction only after its previous one returned.
func (d *driver) closedRound(n int, round int, measured bool) roundStat {
	var next atomic.Int64
	var wg sync.WaitGroup
	coord := d.c.coord()
	cpu0, t0 := cpuTime(), time.Now()
	for c := 0; c < d.w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ring, model := d.plan.keys[c], d.model[c]
			var val []byte
			for next.Add(1) <= int64(n) {
				slot := d.step[c] % len(ring)
				val = append(val[:0], d.plan.salt...)
				val = append(val, '-')
				val = strconv.AppendInt(val, int64(c), 10)
				val = append(val, '-')
				val = strconv.AppendInt(val, int64(d.step[c]), 10)
				d.step[c]++
				key, value := ring[slot], string(val)

				r := txnRec{round: int32(round)}
				r.start = d.now()
				r.due = r.start
				txn := coord.Begin()
				r.seq = txn.ID().Seq
				r.begun = d.now()
				var err error
				for i, id := range partIDs {
					r.exec[i][0] = d.now()
					err = txn.Put(id, key, value)
					r.exec[i][1] = d.now()
					r.nexec++
					if err != nil {
						break
					}
				}
				r.commit0 = d.now()
				var out wire.Outcome
				if err != nil {
					_ = txn.Abort() // release what executed; the txn already counts as failed
				} else {
					out, err = txn.Commit()
					r.ok = err == nil && out == wire.Commit
				}
				r.end = d.now()
				if !r.ok {
					d.fail(out, err)
				}
				if r.ok {
					model[slot] = value
				} else {
					model[slot] = "?"
				}
				if measured {
					d.recs[c] = append(d.recs[c], r)
				}
			}
		}(c)
	}
	wg.Wait()
	return roundStat{wall: time.Since(t0), cpu: cpuTime() - cpu0}
}

// openPhase runs an open-loop window: one generator goroutine releases the
// planned arrivals at their due times whatever the cluster is doing, so a
// stall delays nothing but shows in every later latency, which is timed
// from the due time. Arrivals over the in-flight cap are refused.
func (d *driver) openPhase(seed int64, seconds float64, measured bool) []roundStat {
	first := len(d.openTxns)
	plan := newOpenPlan(d.w, seed, first, seconds)
	d.openTxns = append(d.openTxns, plan...)
	d.openDone = append(d.openDone, make([]txnRec, len(plan))...)
	d.openReads = append(d.openReads, make([][2]string, len(plan))...)
	if measured {
		d.measuredFrom = first
	}

	var inflight atomic.Int64
	var wg sync.WaitGroup
	width := time.Duration(seconds*float64(time.Second)) / openSlices
	slices := make([]roundStat, 0, openSlices)
	cpu0 := cpuTime()
	origin := d.now()
	for k := range plan {
		i := first + k
		due := origin + int64(plan[k].due)
		if wait := due - d.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		// The CPU clock is read as the generator crosses a slice boundary:
		// work that spills over it is charged to the next slice, which
		// evens out.
		for len(slices) < min(int(plan[k].due/width), openSlices-1) {
			cpu := cpuTime()
			slices = append(slices, roundStat{wall: width, cpu: cpu - cpu0})
			cpu0 = cpu
		}
		r := &d.openDone[i]
		r.round = int32(len(slices))
		r.due = due
		r.abort = plan[k].abortAt >= 0
		if measured {
			d.lagNS = append(d.lagNS, d.now()-due)
		}
		if inflight.Add(1) > int64(d.w.InflightCap) {
			inflight.Add(-1)
			r.refused = true
			d.fail(wire.Abort, fmt.Errorf("refused: %d transactions in flight", d.w.InflightCap))
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			d.openTxn(i)
		}()
	}
	wg.Wait()
	for len(slices) < openSlices {
		cpu := cpuTime()
		slices = append(slices, roundStat{wall: width, cpu: cpu - cpu0})
		cpu0 = cpu
	}
	return slices
}

func (d *driver) openTxn(i int) {
	t, r := &d.openTxns[i], &d.openDone[i]
	r.start = d.now()
	txn := d.c.coord().Begin()
	r.seq = txn.ID().Seq
	r.begun = d.now()
	var err error
	for s, si := range t.sites {
		var res []string
		r.exec[s][0] = d.now()
		res, err = txn.Exec(partIDs[si], t.ops[s][:]...)
		r.exec[s][1] = d.now()
		r.nexec++
		if err != nil {
			break
		}
		if len(res) == 1 {
			d.openReads[i][s] = res[0]
		}
	}
	if err == nil && r.abort {
		// The planned abort: this participant fails validation at prepare
		// and votes no.
		d.c.parts()[t.sites[t.abortAt]].kv.Poison(txn.ID())
	}
	r.commit0 = d.now()
	var out wire.Outcome
	if err != nil {
		_ = txn.Abort()
	} else {
		want := wire.Commit
		if r.abort {
			want = wire.Abort
		}
		out, err = txn.Commit()
		r.ok = err == nil && out == want
	}
	r.end = d.now()
	if !r.ok {
		d.fail(out, err)
	}
}

// measuredRecs returns every measured transaction's record.
func (d *driver) measuredRecs() []txnRec {
	if d.w.Open {
		return d.openDone[d.measuredFrom:]
	}
	var out []txnRec
	for _, rs := range d.recs {
		out = append(out, rs...)
	}
	return out
}
