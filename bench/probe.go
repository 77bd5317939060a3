package main

import (
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"prany/internal/lockmgr"
	"prany/internal/metrics"
	"prany/internal/transport"
	"prany/internal/wire"
)

// Micro-probes call one layer's public functions directly, outside any
// cluster, so a layer's unit cost can be told apart from how often the
// workload calls it.

type probes struct {
	wireEncodeNS, wireDecodeNS, wireAllocs float64
	lockNS, lockHandoffUS                  float64
	metMessageNS, metForceNS               float64
	rttUS                                  float64
	fsyncUS                                float64
}

func medianNS(xs []int64) float64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return float64(percentile(xs, 0.5))
}

func runProbes(dir string) (probes, error) {
	var p probes
	p.probeWire()
	p.probeLockmgr()
	p.probeMetrics()
	if err := p.probeRTT(); err != nil {
		return p, err
	}
	err := p.probeFsync(dir)
	return p, err
}

// probeWire encodes and decodes a PREPARE and a DECISION, the two messages
// every participant of every transaction receives.
func (p *probes) probeWire() {
	msgs := []wire.Message{
		{Kind: wire.MsgPrepare, Txn: wire.TxnID{Coord: coordID, Seq: 123456}, From: coordID, To: "p2"},
		{Kind: wire.MsgDecision, Txn: wire.TxnID{Coord: coordID, Seq: 123456}, From: coordID, To: "p2", Outcome: wire.Commit},
	}
	const iters = 100000
	var buf []byte
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		for j := range msgs {
			buf, _ = wire.EncodeInto(buf[:0], &msgs[j])
		}
	}
	enc := time.Since(t0)
	bodies := [][]byte{wire.AppendMessage(nil, &msgs[0]), wire.AppendMessage(nil, &msgs[1])}
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		for _, b := range bodies {
			if _, err := wire.DecodeMessage(b); err != nil {
				panic(err) // a body AppendMessage just produced
			}
		}
	}
	dec := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	ops := float64(iters * len(msgs))
	p.wireEncodeNS = float64(enc) / ops
	p.wireDecodeNS = float64(dec) / ops
	p.wireAllocs = float64(ms1.Mallocs-ms0.Mallocs) / ops // one encode + one decode
}

// probeLockmgr times an uncontended Lock+ReleaseAll, and the hand-off of one
// key from a releasing holder to a blocked waiter.
func (p *probes) probeLockmgr() {
	m := lockmgr.New()
	a, b := wire.TxnID{Coord: coordID, Seq: 1}, wire.TxnID{Coord: coordID, Seq: 2}
	const iters = 200000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := m.Lock(a, "k", lockmgr.Exclusive); err != nil {
			panic(err) // a sole requester can neither deadlock nor be cancelled
		}
		m.ReleaseAll(a)
	}
	p.lockNS = float64(time.Since(t0)) / iters

	const handoffs = 300
	waits := make([]int64, 0, handoffs)
	for i := 0; i < handoffs; i++ {
		if err := m.Lock(a, "k", lockmgr.Exclusive); err != nil {
			panic(err)
		}
		queued, got := make(chan struct{}), make(chan time.Time)
		go func() {
			close(queued)
			err := m.Lock(b, "k", lockmgr.Exclusive)
			got <- time.Now()
			if err != nil {
				panic(err)
			}
		}()
		<-queued
		time.Sleep(50 * time.Microsecond) // let b reach the queue
		t0 := time.Now()
		m.ReleaseAll(a)
		waits = append(waits, int64((<-got).Sub(t0)))
		m.ReleaseAll(b)
	}
	p.lockHandoffUS = medianNS(waits) / 1e3
}

// probeMetrics calls Registry.Message and Registry.Force from GOMAXPROCS
// goroutines at once — the contention every site's hot path pays — and
// reports wall time per call as one caller sees it.
func (p *probes) probeMetrics() {
	const iters = 200000
	run := func(f func(r *metrics.Registry)) float64 {
		r := metrics.NewRegistry()
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < runtime.GOMAXPROCS(0); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					f(r)
				}
			}()
		}
		wg.Wait()
		return float64(time.Since(t0)) / iters
	}
	p.metMessageNS = run(func(r *metrics.Registry) { r.Message(coordID, wire.MsgPrepare) })
	p.metForceNS = run(func(r *metrics.Registry) { r.Force(coordID) })
}

// probeRTT bounces one small message between two TCPNetworks on loopback:
// the floor under every exec round trip and every protocol phase.
func (p *probes) probeRTT() error {
	a, err := transport.NewTCPNetwork(transport.TCPOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCPNetwork(transport.TCPOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer b.Close()
	a.SetAddr("b", b.Addr())
	b.SetAddr("a", a.Addr())
	back := make(chan struct{}, 1)
	a.Register("a", func(wire.Message) { back <- struct{}{} })
	b.Register("b", func(m wire.Message) {
		b.Send(wire.Message{Kind: wire.MsgAck, Txn: m.Txn, From: "b", To: "a"})
	})
	const pings = 2000
	rtts := make([]int64, 0, pings)
	for i := 0; i < pings+100; i++ {
		t0 := time.Now()
		a.Send(wire.Message{Kind: wire.MsgDecision, Txn: wire.TxnID{Coord: "a", Seq: uint64(i)}, From: "a", To: "b"})
		select {
		case <-back:
		case <-time.After(5 * time.Second):
			return os.ErrDeadlineExceeded
		}
		if i >= 100 { // the first pings dial the links
			rtts = append(rtts, int64(time.Since(t0)))
		}
	}
	p.rttUS = medianNS(rtts) / 1e3
	return nil
}

// probeFsync times a bare 256-byte write+fsync in the directory the WAL
// files live in. It describes the substrate, not the program.
func (p *probes) probeFsync(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 256)
	const writes = 200
	durs := make([]int64, 0, writes)
	for i := 0; i < writes; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		durs = append(durs, int64(time.Since(t0)))
	}
	p.fsyncUS = medianNS(durs) / 1e3
	return nil
}
