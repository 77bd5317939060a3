// Package transport carries protocol messages between sites. Two
// implementations share one interface: ChanNetwork, an in-memory network
// with injectable omission failures used by the simulator and tests, and
// TCPNetwork, a real network over the standard library's net package used
// by the cluster binaries.
//
// The failure model is the paper's: sites are fail-stop and only omission
// failures occur. A message is delivered at most once, in per-destination
// FIFO order from any single sender, or it is silently lost — to a crashed
// site, across a severed link, or to an injected drop rule. Timeouts belong
// to the protocol layer, not the transport.
package transport

import (
	"sync"

	"prany/internal/wire"
)

// Handler consumes an inbound message at a site. Handlers run on the
// transport's delivery goroutine for that site; implementations must not
// block indefinitely.
type Handler func(wire.Message)

// Network connects sites.
type Network interface {
	// Register attaches a site and its inbound handler. Registering an
	// already-registered site replaces its handler (used when a site
	// restarts after a crash).
	Register(id wire.SiteID, h Handler)
	// Send routes m to m.To. Delivery is asynchronous and unreliable in
	// exactly the injected ways; Send itself never blocks on the receiver.
	Send(m wire.Message)
	// Close shuts the network down and stops delivery.
	Close()
}

// BatchSender is implemented by networks that can accept a group of
// messages in one enqueue operation. Messages keep their slice order on
// each per-(sender,destination) FIFO, and a same-destination batch enters
// the destination's queue atomically — under a frame-coalescing transport
// that makes it ride one physical write whenever it fits the batch caps.
// The delivery contract is Send's, message by message: each frame is
// individually subject to omission.
type BatchSender interface {
	SendBatch(msgs []wire.Message)
}

// SendAll hands msgs to n in one batch when it supports batching, falling
// back to sequential Sends. It is the emission path protocol layers use so
// acks, decisions and the next transaction's traffic to one peer can share
// a physical frame.
func SendAll(n Network, msgs []wire.Message) {
	if len(msgs) == 0 {
		return
	}
	if len(msgs) == 1 {
		n.Send(msgs[0])
		return
	}
	if bs, ok := n.(BatchSender); ok {
		bs.SendBatch(msgs)
		return
	}
	for _, m := range msgs {
		n.Send(m)
	}
}

// DropRule inspects an about-to-be-delivered message and reports whether to
// drop it. Rules are consulted in registration order; the first match wins.
type DropRule func(m wire.Message) bool

// ChanNetwork is the in-memory Network. Every registered site gets an
// unbounded FIFO mailbox drained by one goroutine, so handlers for a given
// site run sequentially — the same single-threaded message loop a real
// site's transaction manager runs.
type ChanNetwork struct {
	mu      sync.Mutex
	sites   map[wire.SiteID]*mailbox
	down    map[wire.SiteID]bool
	severed map[[2]wire.SiteID]bool
	rules   []*dropEntry
	nextID  int
	onSend  func(wire.Message)
	closed  bool
}

type dropEntry struct {
	id   int
	rule DropRule
}

type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []wire.Message
	handler Handler
	closed  bool
}

func newMailbox(h Handler) *mailbox {
	m := &mailbox{handler: h}
	m.cond = sync.NewCond(&m.mu)
	go m.run()
	return m
}

// run drains the mailbox in delivery batches: everything that queued while
// the previous batch was being handled is taken at once and delivered in
// order, each message but the last with the More hint set — the same
// account of "what has already arrived" that a TCP connection's read buffer
// gives (wire.Delivery), so the in-memory network exercises a site's staged
// forced writes the way the real one does. Messages that arrive during a
// batch wait for the next one, which bounds how long a staged write is held.
func (m *mailbox) run() {
	var rx wire.Delivery
	var batch []wire.Message
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		batch, m.queue = m.queue, batch[:0]
		m.mu.Unlock()
		for i := range batch {
			m.mu.Lock()
			h := m.handler
			m.mu.Unlock()
			if h != nil {
				rx.More = i+1 < len(batch)
				batch[i].Rx = &rx
				h(batch[i])
			}
			batch[i] = wire.Message{} // the queue's spare must not pin payloads
		}
	}
}

func (m *mailbox) push(msg wire.Message) {
	m.mu.Lock()
	if !m.closed {
		m.queue = append(m.queue, msg)
		m.cond.Signal()
	}
	m.mu.Unlock()
}

func (m *mailbox) pushAll(msgs []wire.Message) {
	m.mu.Lock()
	if !m.closed {
		m.queue = append(m.queue, msgs...)
		m.cond.Signal()
	}
	m.mu.Unlock()
}

func (m *mailbox) setHandler(h Handler) {
	m.mu.Lock()
	m.handler = h
	m.mu.Unlock()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Signal()
	m.mu.Unlock()
}

// NewChanNetwork returns an empty in-memory network.
func NewChanNetwork() *ChanNetwork {
	return &ChanNetwork{
		sites:   make(map[wire.SiteID]*mailbox),
		down:    make(map[wire.SiteID]bool),
		severed: make(map[[2]wire.SiteID]bool),
	}
}

// Register implements Network.
func (n *ChanNetwork) Register(id wire.SiteID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if mb := n.sites[id]; mb != nil {
		mb.setHandler(h)
		return
	}
	n.sites[id] = newMailbox(h)
}

// Send implements Network. Messages to crashed sites, across severed links,
// or matching a drop rule are lost without error, as omission failures are.
func (n *ChanNetwork) Send(m wire.Message) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	if n.onSend != nil {
		n.onSend(m)
	}
	if n.down[m.To] || n.down[m.From] {
		n.mu.Unlock()
		return
	}
	if n.severed[linkKey(m.From, m.To)] {
		n.mu.Unlock()
		return
	}
	for _, e := range n.rules {
		if e.rule(m) {
			n.mu.Unlock()
			return
		}
	}
	mb := n.sites[m.To]
	n.mu.Unlock()
	if mb != nil {
		mb.push(m)
	}
}

// SendBatch implements BatchSender. Every fault decision — crash, severed
// link, drop rule — is taken per message under one hold of the network
// lock, exactly as if the messages had been Sent individually: batching is
// a physical-transport optimization and must not change which messages an
// injected fault can reach. Survivors bound for one destination enter its
// mailbox in a single append.
func (n *ChanNetwork) SendBatch(msgs []wire.Message) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	var deliver []wire.Message
	var boxes []*mailbox
	for _, m := range msgs {
		if n.onSend != nil {
			n.onSend(m)
		}
		if n.down[m.To] || n.down[m.From] {
			continue
		}
		if n.severed[linkKey(m.From, m.To)] {
			continue
		}
		dropped := false
		for _, e := range n.rules {
			if e.rule(m) {
				dropped = true
				break
			}
		}
		if dropped {
			continue
		}
		if mb := n.sites[m.To]; mb != nil {
			deliver = append(deliver, m)
			boxes = append(boxes, mb)
		}
	}
	n.mu.Unlock()
	for i := 0; i < len(boxes); {
		j := i + 1
		for j < len(boxes) && boxes[j] == boxes[i] {
			j++
		}
		boxes[i].pushAll(deliver[i:j])
		i = j
	}
}

// Close implements Network.
func (n *ChanNetwork) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	for _, mb := range n.sites {
		mb.close()
	}
}

// OnSend installs a tap invoked (under the network lock) for every Send,
// before fault rules decide the message's fate. Metrics collection uses it.
func (n *ChanNetwork) OnSend(f func(wire.Message)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onSend = f
}

// SetDown marks a site crashed (true) or recovered (false). A crashed site
// neither receives nor effectively sends: messages from it are dropped too,
// closing the window where an in-flight Send races a crash.
func (n *ChanNetwork) SetDown(id wire.SiteID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = down
}

// Sever cuts the bidirectional link between a and b.
func (n *ChanNetwork) Sever(a, b wire.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.severed[linkKey(a, b)] = true
	n.severed[linkKey(b, a)] = true
}

// Heal restores the link between a and b.
func (n *ChanNetwork) Heal(a, b wire.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.severed, linkKey(a, b))
	delete(n.severed, linkKey(b, a))
}

// AddDropRule installs a drop rule and returns a token for RemoveDropRule.
func (n *ChanNetwork) AddDropRule(r DropRule) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextID++
	n.rules = append(n.rules, &dropEntry{id: n.nextID, rule: r})
	return n.nextID
}

// RemoveDropRule removes a previously installed rule.
func (n *ChanNetwork) RemoveDropRule(id int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, e := range n.rules {
		if e.id == id {
			n.rules = append(n.rules[:i], n.rules[i+1:]...)
			return
		}
	}
}

// DropOnce installs a rule that drops the first message matching r, then
// removes itself. It returns a channel closed when the drop fires, so tests
// can synchronize on the injected loss.
func (n *ChanNetwork) DropOnce(r DropRule) <-chan struct{} {
	fired := make(chan struct{})
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextID++
	id := n.nextID
	var once sync.Once
	n.rules = append(n.rules, &dropEntry{id: id, rule: func(m wire.Message) bool {
		if !r(m) {
			return false
		}
		hit := false
		once.Do(func() {
			hit = true
			close(fired)
			// Self-removal happens outside the rule scan; mark spent by
			// making the rule never match again via the once guard.
		})
		return hit
	}})
	return fired
}

func linkKey(a, b wire.SiteID) [2]wire.SiteID { return [2]wire.SiteID{a, b} }
