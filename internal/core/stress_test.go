package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prany/internal/history"
	"prany/internal/kvstore"
	"prany/internal/metrics"
	"prany/internal/wal"
	"prany/internal/wire"
)

// The stress harness drives many concurrent transactions through real
// engines over a thread-safe router — unlike the synchronous rig, whose
// handle-to-completion routing serializes everything. Each site gets one
// mailbox goroutine draining a FIFO queue (per-destination FIFO order, the
// delivery model the protocols assume), so the log's shared force barrier,
// the sharded protocol tables and the parallel fan-out are all exercised
// under -race.

// stressNet routes messages between stress sites.
type stressNet struct {
	mu    sync.Mutex
	boxes map[wire.SiteID]*stressBox
}

type stressBox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []wire.Message
	handle func(wire.Message)
	closed bool
}

func newStressNet() *stressNet {
	return &stressNet{boxes: make(map[wire.SiteID]*stressBox)}
}

func (n *stressNet) register(id wire.SiteID, h func(wire.Message)) {
	b := &stressBox{handle: h}
	b.cond = sync.NewCond(&b.mu)
	go func() {
		for {
			b.mu.Lock()
			for len(b.queue) == 0 && !b.closed {
				b.cond.Wait()
			}
			if b.closed {
				b.mu.Unlock()
				return
			}
			m := b.queue[0]
			b.queue = b.queue[1:]
			b.mu.Unlock()
			b.handle(m)
		}
	}()
	n.mu.Lock()
	n.boxes[id] = b
	n.mu.Unlock()
}

func (n *stressNet) send(m wire.Message) {
	n.mu.Lock()
	b := n.boxes[m.To]
	n.mu.Unlock()
	if b == nil {
		return
	}
	b.mu.Lock()
	if !b.closed {
		b.queue = append(b.queue, m)
		b.cond.Signal()
	}
	b.mu.Unlock()
}

func (n *stressNet) close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, b := range n.boxes {
		b.mu.Lock()
		b.closed = true
		b.cond.Signal()
		b.mu.Unlock()
	}
}

// TestStressConcurrentMixedProtocols runs many client goroutines committing
// and aborting transactions across PrN, PrA and PrC participants at once,
// then drains the cluster and asserts a violation-free history. Run it with
// -race: its whole purpose is to catch data races on the commit hot path
// (shared force barrier, sharded tables, parallel fan-out).
func TestStressConcurrentMixedProtocols(t *testing.T) {
	const (
		coordID = wire.SiteID("coord")
		clients = 8
	)
	perClient := 40
	if testing.Short() {
		perClient = 10
	}
	partIDs := []wire.SiteID{"pn", "pa", "pc"}
	protos := map[wire.SiteID]wire.Protocol{"pn": wire.PrN, "pa": wire.PrA, "pc": wire.PrC}

	net := newStressNet()
	defer net.close()
	hist := history.NewRecorder()
	met := metrics.NewRegistry()
	pcp := NewPCP()

	newLog := func(t *testing.T) *wal.Log {
		log, err := wal.Open(wal.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	env := func(id wire.SiteID, log *wal.Log) Env {
		return Env{ID: id, Log: log, Send: net.send, Hist: hist, Met: met, Dead: &atomic.Bool{}}
	}

	coordLog := newLog(t)
	defer coordLog.Close()
	coord := NewCoordinator(env(coordID, coordLog),
		CoordinatorConfig{VoteTimeout: 2 * time.Second}, pcp)

	// Exec replies route back to the issuing client through a reply table.
	var replyMu sync.Mutex
	replies := make(map[wire.TxnID]chan wire.Message)
	net.register(coordID, func(m wire.Message) {
		switch m.Kind {
		case wire.MsgVote, wire.MsgAck, wire.MsgInquiry, wire.MsgRecoverSite:
			coord.Handle(m)
		case wire.MsgExecReply:
			replyMu.Lock()
			ch := replies[m.Txn]
			replyMu.Unlock()
			if ch != nil {
				select {
				case ch <- m:
				default:
				}
			}
		}
	})

	parts := make(map[wire.SiteID]*Participant, len(partIDs))
	stores := make(map[wire.SiteID]*kvstore.Store, len(partIDs))
	for _, id := range partIDs {
		pcp.Set(id, protos[id])
		log := newLog(t)
		defer log.Close()
		st := kvstore.New()
		p := NewParticipant(env(id, log), protos[id], st, false)
		parts[id] = p
		stores[id] = st
		net.register(id, p.Handle)
	}

	var seq atomic.Uint64
	var commits, aborts atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				txn := wire.TxnID{Coord: coordID, Seq: seq.Add(1)}
				poison := (client+i)%5 == 0 // ~20% forced aborts
				if poison {
					stores[partIDs[(client+i)%len(partIDs)]].Poison(txn)
				}
				ch := make(chan wire.Message, 1)
				replyMu.Lock()
				replies[txn] = ch
				replyMu.Unlock()
				ok := true
				for s, id := range partIDs {
					net.send(wire.Message{
						Kind: wire.MsgExec, Txn: txn, From: coordID, To: id,
						Ops: []wire.Op{{Kind: wire.OpPut,
							Key:   fmt.Sprintf("c%d-k%d-s%d", client, i, s),
							Value: "v"}},
					})
					select {
					case m := <-ch:
						if m.Err != "" {
							ok = false
						}
					case <-time.After(5 * time.Second):
						t.Errorf("client %d txn %s: exec at %s timed out", client, txn, id)
						ok = false
					}
				}
				replyMu.Lock()
				delete(replies, txn)
				replyMu.Unlock()
				if !ok {
					continue
				}
				out, err := coord.Commit(txn, partIDs)
				if err != nil {
					t.Errorf("client %d txn %s: %v", client, txn, err)
					continue
				}
				if poison && out == wire.Commit {
					t.Errorf("client %d txn %s: poisoned transaction committed", client, txn)
				}
				if out == wire.Commit {
					commits.Add(1)
				} else {
					aborts.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	// Drain: let in-flight decisions and acks settle, ticking the timeout
	// retries until every table is empty.
	deadline := time.Now().Add(15 * time.Second)
	for {
		pending := coord.PTSize()
		for _, p := range parts {
			pending += p.Pending()
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not drain: %d entries still pending", pending)
		}
		time.Sleep(10 * time.Millisecond)
		coord.Tick()
		for _, p := range parts {
			p.Tick()
		}
	}

	if commits.Load() == 0 || aborts.Load() == 0 {
		t.Fatalf("degenerate run: %d commits, %d aborts", commits.Load(), aborts.Load())
	}
	if v := history.CheckOperational(hist.Events()); len(v) != 0 {
		t.Fatalf("%d violations, first: %v", len(v), v[0])
	}
	t.Logf("stress: %d commits, %d aborts, coord shard waits: %d",
		commits.Load(), aborts.Load(), met.Site(coordID).ShardWaits)
}
