package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prany/internal/core"
	"prany/internal/metrics"
	"prany/internal/site"
	"prany/internal/transport"
	"prany/internal/wire"
)

// ConsensusPoint is one cell of the replicated-decision comparison (E19):
// the same concurrent commit workload over real TCP with the decision fixed
// either by the coordinator's local log alone (Acceptors == 0, the paper's
// single-decider path) or by one Paxos Commit round over a 2F+1 acceptor
// set. The replication cost shows up in MsgsPerTxn and ForcesPerTxn — the
// quorum round's extra traffic and the acceptors' accept forces — and in the
// commit-latency percentiles, which now include a network round trip to the
// quorum before the decision is fixed.
type ConsensusPoint struct {
	Acceptors    int // replica count (0 = single decider)
	Clients      int
	Txns         int
	TxnsPerSec   float64
	MeanLatency  time.Duration
	MsgsPerTxn   float64 // logical messages per txn, cluster-wide
	ForcesPerTxn float64 // forced log writes per txn, cluster-wide
	// Commit-latency percentiles from the coordinator's SpanCommit
	// histogram: Commit() call to decision fixed, per transaction.
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
}

// MeasureConsensus runs txns committing transactions over a real TCP
// cluster — coordinator + pa(PrA) + pc(PrC), exactly the model checker's
// E19 topology — with clients concurrent client goroutines. With
// acceptors > 0 the deployment adds a1..aN acceptor sites and the
// coordinator fixes every decision through a ballot-0 Paxos Commit round
// over them; with acceptors == 0 it is the plain single-decider baseline.
func MeasureConsensus(acceptors, clients, txns int, seed int64) (ConsensusPoint, error) {
	pt := ConsensusPoint{Acceptors: acceptors, Clients: clients, Txns: txns}
	met := metrics.NewRegistry()
	pcp := core.NewPCP()
	newNet := func() (*transport.TCPNetwork, error) {
		return transport.NewTCPNetwork(transport.TCPOptions{
			Listen: "127.0.0.1:0", Met: met,
		})
	}

	// One listener per site, then a full address mesh: acceptors talk to the
	// coordinator, to each other (sync rounds), and to participants
	// (answering escalated inquiries), so everybody knows everybody.
	type endpoint struct {
		id  wire.SiteID
		net *transport.TCPNetwork
	}
	var eps []endpoint
	addNet := func(id wire.SiteID) (*transport.TCPNetwork, error) {
		net, err := newNet()
		if err != nil {
			return nil, err
		}
		eps = append(eps, endpoint{id, net})
		return net, nil
	}

	coordNet, err := addNet("coord")
	if err != nil {
		return pt, err
	}
	defer coordNet.Close()

	partProtos := map[wire.SiteID]wire.Protocol{"pa": wire.PrA, "pc": wire.PrC}
	partIDs := []wire.SiteID{"pa", "pc"}
	partNets := make(map[wire.SiteID]*transport.TCPNetwork, len(partIDs))
	for _, id := range partIDs {
		net, err := addNet(id)
		if err != nil {
			return pt, err
		}
		defer net.Close()
		partNets[id] = net
		pcp.Set(id, partProtos[id])
	}
	var accIDs []wire.SiteID
	accNets := make(map[wire.SiteID]*transport.TCPNetwork, acceptors)
	for i := 0; i < acceptors; i++ {
		id := wire.SiteID(fmt.Sprintf("a%d", i+1))
		net, err := addNet(id)
		if err != nil {
			return pt, err
		}
		defer net.Close()
		accIDs = append(accIDs, id)
		accNets[id] = net
	}
	for _, a := range eps {
		for _, b := range eps {
			if a.id != b.id {
				a.net.SetAddr(b.id, b.net.Addr())
			}
		}
	}

	// Acceptor sites boot first so the quorum is listening before the first
	// decision round; their fresh-boot sync rounds against each other are
	// best-effort and settle via idle re-sync ticks either way.
	accs := make([]*site.Site, 0, acceptors)
	for _, id := range accIDs {
		s, err := site.New(site.Config{
			ID: id, Proto: wire.PrN, Net: accNets[id], PCP: pcp, Met: met,
			ExecTimeout: 10 * time.Second,
			Acceptors:   accIDs,
		})
		if err != nil {
			return pt, err
		}
		accs = append(accs, s)
	}
	parts := make([]*site.Site, 0, len(partIDs))
	for _, id := range partIDs {
		s, err := site.New(site.Config{
			ID: id, Proto: partProtos[id], Net: partNets[id], PCP: pcp, Met: met,
			ExecTimeout: 10 * time.Second,
			Acceptors:   accIDs,
		})
		if err != nil {
			return pt, err
		}
		parts = append(parts, s)
	}
	coord, err := site.New(site.Config{
		ID: "coord", Proto: wire.PrN, Net: coordNet, PCP: pcp, Met: met,
		ExecTimeout: 10 * time.Second,
		Coordinator: core.CoordinatorConfig{VoteTimeout: 5 * time.Second},
		Acceptors:   accIDs,
	})
	if err != nil {
		return pt, err
	}

	var next, errs atomic.Int64
	var latNS atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(txns) {
					return
				}
				t0 := time.Now()
				txn := coord.Begin()
				for j, id := range partIDs {
					if err := txn.Put(id, fmt.Sprintf("k%d-%d-%d", seed, i, j), "v"); err != nil {
						errs.Add(1)
						return
					}
				}
				if out, err := txn.Commit(); err != nil || out != wire.Commit {
					errs.Add(1)
					return
				}
				latNS.Add(int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if n := errs.Load(); n > 0 {
		return pt, fmt.Errorf("experiments: %d errors in consensus run (acceptors=%d)", n, acceptors)
	}
	// Drain the tail: late acks, PaxosEnd fan-outs and acceptor tombstoning.
	deadline := time.Now().Add(10 * time.Second)
	all := append(append([]*site.Site{coord}, parts...), accs...)
	quiet := func() bool {
		for _, s := range all {
			if !s.Quiesced() {
				return false
			}
		}
		return true
	}
	for !quiet() {
		if time.Now().After(deadline) {
			return pt, fmt.Errorf("experiments: consensus cluster did not quiesce (acceptors=%d)", acceptors)
		}
		for _, s := range all {
			s.Tick()
		}
		time.Sleep(10 * time.Millisecond)
	}

	tot := met.Total()
	ftxns := float64(txns)
	pt.TxnsPerSec = ftxns / elapsed.Seconds()
	pt.MeanLatency = time.Duration(latNS.Load() / int64(txns))
	pt.MsgsPerTxn = float64(tot.TotalMessages()) / ftxns
	pt.ForcesPerTxn = float64(tot.Forces) / ftxns
	commit := met.Hist(metrics.SpanCommit)
	pt.LatencyP50 = commit.P50()
	pt.LatencyP95 = commit.P95()
	pt.LatencyP99 = commit.P99()
	return pt, nil
}
