package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prany/internal/core"
	"prany/internal/metrics"
	"prany/internal/site"
	"prany/internal/transport"
	"prany/internal/wire"
)

// PipelinePoint is one cell of the pipelined-commit-stream measurement
// (E16): a concurrent commit workload over real TCP. MsgsPerTxn counts the
// logical protocol traffic (the paper's message-complexity tables);
// FramesPerTxn counts the physical wire writes behind it, which is where
// pipelining shows up, exactly as the Forces/Syncs split does for the log.
type PipelinePoint struct {
	Clients        int
	Txns           int
	TxnsPerSec     float64
	MeanLatency    time.Duration
	MsgsPerTxn     float64 // logical messages per txn, cluster-wide
	FramesPerTxn   float64 // physical wire writes per txn, cluster-wide
	MeanFrameBatch float64 // message frames per physical write
	BytesPerTxn    float64 // encoded wire bytes per txn
	AllocsPerTxn   float64 // heap allocations per txn, whole process
	// Commit-latency percentiles from the coordinator's SpanCommit
	// histogram (E17): Commit() call to decision durable, per transaction.
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
}

// MeasurePipeline runs txns committing transactions over a mixed
// PrN/PrA/PrC cluster of real TCP processes (one listener per site, exactly
// the prany-server topology) with clients concurrent client goroutines.
// Each link's writer drains whatever accumulated while its previous write
// was in flight into one multi-frame batch.
func MeasurePipeline(clients, txns int, seed int64) (PipelinePoint, error) {
	pt, _, err := measurePipeline(clients, txns, seed)
	return pt, err
}

// measurePipeline is MeasurePipeline plus the run's metrics registry, so
// E17 can read the full span histograms (prepare, ack drain, WAL force,
// frame flush) behind the headline point.
func measurePipeline(clients, txns int, seed int64) (PipelinePoint, *metrics.Registry, error) {
	pt := PipelinePoint{Clients: clients, Txns: txns}
	met := metrics.NewRegistry()
	pcp := core.NewPCP()
	newNet := func(addrs map[wire.SiteID]string) (*transport.TCPNetwork, error) {
		return transport.NewTCPNetwork(transport.TCPOptions{Listen: "127.0.0.1:0", Addrs: addrs, Met: met})
	}

	coordNet, err := newNet(nil)
	if err != nil {
		return pt, met, err
	}
	defer coordNet.Close()

	mix := MixedThirds(3)
	partIDs := make([]wire.SiteID, 0, len(mix))
	parts := make([]*site.Site, 0, len(mix))
	for i, p := range mix {
		id := wire.SiteID(fmt.Sprintf("p%d", i+1))
		pcp.Set(id, p)
		net, err := newNet(map[wire.SiteID]string{"coord": coordNet.Addr()})
		if err != nil {
			return pt, met, err
		}
		defer net.Close()
		coordNet.SetAddr(id, net.Addr())
		s, err := site.New(site.Config{
			ID: id, Proto: p, Net: net, PCP: pcp, Met: met,
			ExecTimeout: 10 * time.Second,
		})
		if err != nil {
			return pt, met, err
		}
		partIDs = append(partIDs, id)
		parts = append(parts, s)
	}
	coord, err := site.New(site.Config{
		ID: "coord", Proto: wire.PrN, Net: coordNet, PCP: pcp, Met: met,
		ExecTimeout: 10 * time.Second,
		Coordinator: core.CoordinatorConfig{VoteTimeout: 5 * time.Second},
	})
	if err != nil {
		return pt, met, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)

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
	runtime.ReadMemStats(&ms1)

	if n := errs.Load(); n > 0 {
		return pt, met, fmt.Errorf("experiments: %d errors in pipeline run", n)
	}
	// Drain the tail: late acks and retained protocol-table entries.
	deadline := time.Now().Add(10 * time.Second)
	quiet := func() bool {
		if !coord.Quiesced() {
			return false
		}
		for _, p := range parts {
			if !p.Quiesced() {
				return false
			}
		}
		return true
	}
	for !quiet() {
		if time.Now().After(deadline) {
			return pt, met, fmt.Errorf("experiments: pipeline cluster did not quiesce")
		}
		coord.Tick()
		for _, p := range parts {
			p.Tick()
		}
		time.Sleep(10 * time.Millisecond)
	}

	tot := met.Total()
	ftxns := float64(txns)
	pt.TxnsPerSec = ftxns / elapsed.Seconds()
	pt.MeanLatency = time.Duration(latNS.Load() / int64(txns))
	pt.MsgsPerTxn = float64(tot.TotalMessages()) / ftxns
	pt.FramesPerTxn = float64(tot.Frames) / ftxns
	pt.MeanFrameBatch = tot.MeanFrameBatch()
	pt.BytesPerTxn = float64(tot.BytesOnWire) / ftxns
	pt.AllocsPerTxn = float64(ms1.Mallocs-ms0.Mallocs) / ftxns
	commit := met.Hist(metrics.SpanCommit)
	pt.LatencyP50 = commit.P50()
	pt.LatencyP95 = commit.P95()
	pt.LatencyP99 = commit.P99()
	return pt, met, nil
}
