package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"prany/internal/wire"
)

// workload is one frozen set of inputs. The sizes below are the numbers
// BENCHMARK.json and README.md cite; later issues refer to workloads by
// name, so neither names nor sizes change without re-measuring the baseline.
type workload struct {
	Name string
	Why  string
	// File selects wal.FileStore in a fresh directory (real write+fsync);
	// otherwise wal.MemStore.
	File bool
	// Paxos sets site.Config.Acceptors = {p1,p2,p3} on all four sites.
	Paxos bool
	// Open selects the open-loop generator; otherwise closed-loop rounds.
	Open bool

	Clients   int // closed loop: concurrent client goroutines
	RoundTxns int // closed loop: transactions per round (fixed work)
	Keys      int // closed loop: ring size per client and site; open loop: hot-set size per site

	Rate        float64 // open loop: Poisson arrivals per second
	InflightCap int     // open loop: arrivals over this many in flight are refused
	AbortFrac   float64 // open loop: share of planned aborts
	WarmSeconds float64 // open loop: discarded lead-in

	// TraceEvery samples spans for one transaction in this many during a
	// traced run (counters and sums cover every transaction regardless).
	TraceEvery uint64
}

var workloads = []workload{
	{
		Name:    "mem-closed",
		Why:     "MemStore, 16 closed-loop clients, 1 Put at p1,p2,p3 then Commit, 30000 txns/round: CPU-bound message path (wire, transport, core, site, metrics); WAL batching must show no change here",
		Clients: 16, RoundTxns: 30000, Keys: 1024, TraceEvery: 64,
	},
	{
		Name: "file-closed",
		Why:  "same txns on FileStore (real write+fsync), 2000 txns/round: forced writes are what PrN/PrA/PrC/PrAny differ in; wal dominates, so wire/transport savings must show only in cpu_us_per_txn",
		File: true, Clients: 16, RoundTxns: 2000, Keys: 1024, TraceEvery: 8,
	},
	{
		Name: "mix-open",
		Why:  "FileStore, open loop: Poisson 900 txns/s, 2 of 3 sites, Get+Put per site on a 256-key hot set, 20% planned aborts, timed from due time: any linger, abort-path cost or lock hand-off shows as latency",
		File: true, Open: true, Keys: 256, Rate: 900, InflightCap: 1024, AbortFrac: 0.2, WarmSeconds: 2, TraceEvery: 8,
	},
	{
		Name: "paxos-file",
		Why:  "file-closed with Acceptors={p1,p2,p3} on every site (F=1), 1200 txns/round: the only workload where consensus runs; ROADMAP item 5 compares its commit_p50_ms with file-closed's",
		File: true, Paxos: true, Clients: 16, RoundTxns: 1200, Keys: 1024, TraceEvery: 8,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// The participant sites and their protocols: the E16/E21 topology.
var (
	coordID   = wire.SiteID("coord")
	partIDs   = []wire.SiteID{"p1", "p2", "p3"}
	partProto = []wire.Protocol{wire.PrN, wire.PrA, wire.PrC}
)

const initValue = "init"

// closedPlan is the closed-loop input: every client walks its own key ring
// in a seeded order, so transactions never conflict and the store stays
// bounded. The cluster sees only the keys and values.
type closedPlan struct {
	salt string
	keys [][]string // [client][step % Keys] -> key, already permuted
}

func newClosedPlan(w *workload, seed int64) *closedPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &closedPlan{salt: fmt.Sprintf("%x", rng.Uint32()), keys: make([][]string, w.Clients)}
	for c := range p.keys {
		ring := make([]string, w.Keys)
		for i, k := range rng.Perm(w.Keys) {
			ring[i] = fmt.Sprintf("c%02d-k%04d", c, k)
		}
		p.keys[c] = ring
	}
	return p
}

// openTxn is one planned open-loop transaction: two sites in fixed site
// order, a Get and a Put per site on distinct keys in ascending key order
// (so lock waits happen and deadlock cannot), and possibly a planned abort.
type openTxn struct {
	due     time.Duration // offset from the start of the phase
	sites   [2]int        // indices into partIDs, ascending
	ops     [2][2]wire.Op
	abortAt int // index into sites of the participant poisoned before Commit; -1 = commit
}

func newOpenPlan(w *workload, seed int64, firstIndex int, seconds float64) []openTxn {
	rng := rand.New(rand.NewSource(seed))
	var plan []openTxn
	total := time.Duration(seconds * float64(time.Second))
	var at time.Duration
	for i := firstIndex; ; i++ {
		at += time.Duration(rng.ExpFloat64() / w.Rate * float64(time.Second))
		if at >= total {
			break
		}
		t := openTxn{due: at, abortAt: -1}
		skip := rng.Intn(len(partIDs))
		n := 0
		for s := range partIDs {
			if s != skip {
				t.sites[n] = s
				n++
			}
		}
		for s := range t.sites {
			lo, hi := rng.Intn(w.Keys), rng.Intn(w.Keys-1)
			if hi >= lo {
				hi++
			} else {
				lo, hi = hi, lo
			}
			get, put := wire.Op{Kind: wire.OpGet, Key: hotKey(lo)}, wire.Op{Kind: wire.OpPut, Key: hotKey(hi), Value: openValue(i)}
			if rng.Intn(2) == 0 {
				get.Key, put.Key = put.Key, get.Key
				t.ops[s] = [2]wire.Op{put, get}
			} else {
				t.ops[s] = [2]wire.Op{get, put}
			}
		}
		if rng.Float64() < w.AbortFrac {
			t.abortAt = rng.Intn(2)
		}
		plan = append(plan, t)
	}
	return plan
}

func hotKey(i int) string { return fmt.Sprintf("h%04d", i) }

func openValue(i int) string { return fmt.Sprintf("t%d", i) }

// percentile returns the exact q-quantile of sorted (nearest rank).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
