package transport

import (
	"testing"
	"time"

	"prany/internal/metrics"
	"prany/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tcpPair returns a server hosting site "p" (with collector) and a client
// configured from opts with "p"'s address installed.
func tcpPair(t *testing.T, opts TCPOptions) (*TCPNetwork, *collector, *TCPNetwork) {
	t.Helper()
	server, err := NewTCPNetwork(TCPOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	p := newCollector()
	server.Register("p", p.handle)

	opts.Addrs = map[wire.SiteID]string{"p": server.Addr()}
	client, err := NewTCPNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return server, p, client
}

// TestTCPBatchCoalescesFrames: a SendBatch to one destination enters the
// link queue atomically, so the writer drains it into one physical frame —
// Frames counts 1 write, FramesBatched counts every message, and FIFO order
// survives the coalescing.
func TestTCPBatchCoalescesFrames(t *testing.T) {
	reg := metrics.NewRegistry()
	_, p, client := tcpPair(t, TCPOptions{Met: reg})

	const msgs = 10
	batch := make([]wire.Message, msgs)
	for i := range batch {
		batch[i] = msg("c", "p", uint64(i))
	}
	client.SendBatch(batch)

	got := p.waitN(t, msgs)
	for i, m := range got {
		if m.Txn.Seq != uint64(i) {
			t.Fatalf("batching reordered traffic: %v", got)
		}
	}
	c := reg.Site("c")
	if c.Frames != 1 || c.FramesBatched != msgs {
		t.Fatalf("Frames=%d FramesBatched=%d, want 1/%d: batch split across writes", c.Frames, c.FramesBatched, msgs)
	}
	if mb := c.MeanFrameBatch(); mb != msgs {
		t.Fatalf("MeanFrameBatch = %v, want %d", mb, msgs)
	}
	if c.BytesOnWire == 0 {
		t.Fatal("BytesOnWire not counted")
	}
}

// TestTCPBatchSizeCap: one physical write carries at most maxBatch frames,
// so a burst of twice that, queued atomically, leaves as two full frames in
// FIFO order.
func TestTCPBatchSizeCap(t *testing.T) {
	reg := metrics.NewRegistry()
	_, p, client := tcpPair(t, TCPOptions{Met: reg})

	batch := make([]wire.Message, 2*maxBatch)
	for i := range batch {
		batch[i] = msg("c", "p", uint64(i))
	}
	client.SendBatch(batch)
	for i, m := range p.waitN(t, len(batch)) {
		if m.Txn.Seq != uint64(i) {
			t.Fatalf("message %d arrived at position %d", m.Txn.Seq, i)
		}
	}
	c := reg.Site("c")
	if c.Frames != 2 || c.FramesBatched != uint64(len(batch)) {
		t.Fatalf("Frames=%d FramesBatched=%d, want 2/%d: size cap not honored", c.Frames, c.FramesBatched, len(batch))
	}
}

// TestTCPRedialBackoffResetsAfterSuccess is the flapping-listener test for
// the backoff fix: drive the link's failure streak to the cap, let one send
// succeed, then fail the link again — the first flap must not pin the
// healthy-again link at max backoff, so post-success retries come at base
// cadence (many retries per window), not cap cadence (one or two).
func TestTCPRedialBackoffResetsAfterSuccess(t *testing.T) {
	placeholder, err := NewTCPNetwork(TCPOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := placeholder.Addr()
	placeholder.Close()

	reg := metrics.NewRegistry()
	client, err := NewTCPNetwork(TCPOptions{
		Addrs:       map[wire.SiteID]string{"p": addr},
		Met:         reg,
		MaxRetries:  10000,
		RetryBase:   5 * time.Millisecond,
		RetryCap:    640 * time.Millisecond,
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	retries := func() uint64 { return reg.Site("c").NetRetries }

	// Flap down: nobody listens, the failure streak climbs to the cap
	// (8 consecutive failures reach RetryCap at this base).
	client.Send(msg("c", "p", 1))
	waitFor(t, 15*time.Second, func() bool { return retries() >= 8 })

	// Flap up: the pending message lands; the success must reset the
	// streak.
	server, err := NewTCPNetwork(TCPOptions{Listen: addr})
	if err != nil {
		t.Fatal(err)
	}
	p := newCollector()
	server.Register("p", p.handle)
	p.waitN(t, 1)

	// Flap down again, with a feeder keeping traffic queued. From the
	// first post-flap retry, a reset streak sleeps base, 2x, 4x, ... =
	// at most ~310ms for the next five retries; a streak still pinned at
	// the cap would sleep >= 320ms per retry and manage at most two or
	// three in the window.
	server.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := uint64(2); ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				client.Send(msg("c", "p", i))
			}
		}
	}()
	base := retries()
	waitFor(t, 15*time.Second, func() bool { return retries() > base })
	first := retries()
	time.Sleep(800 * time.Millisecond)
	if got := retries() - first; got < 5 {
		t.Fatalf("only %d retries in 800ms after a successful send; failure streak not reset, backoff pinned at cap", got)
	}
}

// TestChanSendBatchAppliesFaultsPerMessage: batching through the in-memory
// network must not change which messages a fault can reach — a drop rule
// aimed at one message of a batch removes exactly that message.
func TestChanSendBatchAppliesFaultsPerMessage(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	c := newCollector()
	n.Register("b", c.handle)
	n.AddDropRule(func(m wire.Message) bool { return m.Txn.Seq == 1 })

	n.SendBatch([]wire.Message{msg("a", "b", 0), msg("a", "b", 1), msg("a", "b", 2)})
	got := c.waitN(t, 2)
	if got[0].Txn.Seq != 0 || got[1].Txn.Seq != 2 {
		t.Fatalf("drop rule misapplied to batch: %v", got)
	}
}

// TestChanSendBatchMixedDestinations: a batch fanning out to several sites
// delivers to each in order, including to crashed sites not at all.
func TestChanSendBatchMixedDestinations(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	cb := newCollector()
	cc := newCollector()
	n.Register("b", cb.handle)
	n.Register("c", cc.handle)
	n.Register("dead", newCollector().handle)
	n.SetDown("dead", true)

	n.SendBatch([]wire.Message{
		msg("a", "b", 0), msg("a", "b", 1),
		msg("a", "c", 0),
		msg("a", "dead", 0),
		msg("a", "b", 2),
	})
	gb := cb.waitN(t, 3)
	for i, m := range gb {
		if m.Txn.Seq != uint64(i) {
			t.Fatalf("per-destination FIFO violated: %v", gb)
		}
	}
	cc.waitN(t, 1)
}

// TestSendAllFallsBackWithoutBatchSender: SendAll on a Network that lacks
// SendBatch degrades to sequential Sends.
func TestSendAllFallsBackWithoutBatchSender(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	c := newCollector()
	n.Register("b", c.handle)
	// Hide the BatchSender implementation behind the plain interface.
	var plain Network = onlyNetwork{n}
	SendAll(plain, []wire.Message{msg("a", "b", 0), msg("a", "b", 1)})
	got := c.waitN(t, 2)
	if got[0].Txn.Seq != 0 || got[1].Txn.Seq != 1 {
		t.Fatalf("fallback path reordered: %v", got)
	}
}

// onlyNetwork strips every optional interface from a Network.
type onlyNetwork struct{ n Network }

func (o onlyNetwork) Register(id wire.SiteID, h Handler) { o.n.Register(id, h) }
func (o onlyNetwork) Send(m wire.Message)                { o.n.Send(m) }
func (o onlyNetwork) Close()                             { o.n.Close() }
