package transport

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prany/internal/metrics"
	"prany/internal/wire"
)

// TCPNetwork is a Network over real TCP connections, used by the
// prany-server and prany-coord binaries. Each process hosts one or more
// local sites behind a single listener; remote sites are reached through an
// address book.
//
// The outbound path is a pipelined commit stream: Send enqueues onto a
// per-destination FIFO and a per-destination writer goroutine drains the
// queue into one multi-frame batch per physical write — whatever accumulated
// while the previous write was in flight, so an idle link adds no latency
// and a loaded one batches exactly as hard as it is loaded. Many logical messages ride one syscall the same
// way many forced log writes ride one fsync; the Frames/FramesBatched
// counters record the split. Dials and write failures are retried under
// capped jittered exponential backoff; a batch still undeliverable after
// the last retry is dropped, which is exactly the omission-failure contract
// the protocols are built to survive.
type TCPNetwork struct {
	mu      sync.Mutex
	addrs   map[wire.SiteID]string
	links   map[string]*outLink
	inbound map[net.Conn]struct{}
	ln      net.Listener
	wg      sync.WaitGroup
	logf    func(format string, args ...any)
	met     *metrics.Registry

	// routes is what the per-message paths (Send, SendBatch, serveConn) read,
	// without taking mu. It is replaced, never modified, under mu.
	routes atomic.Pointer[routes]

	dialTimeout  time.Duration
	writeTimeout time.Duration
	maxRetries   int
	retryBase    time.Duration
	retryCap     time.Duration

	// jitterMu guards jitter, the backoff randomizer: every link writer
	// shares it and rand.Rand is not concurrency-safe.
	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// routes is an immutable snapshot of where a message for a site goes: to a
// local handler, or onto the link of an address already dialed for it. A site
// in neither map takes the slow path through linkFor.
type routes struct {
	handlers map[wire.SiteID]Handler
	links    map[wire.SiteID]*outLink
	closed   bool
}

// publishLocked replaces the routes snapshot with a copy edited by edit.
// Caller holds n.mu.
func (n *TCPNetwork) publishLocked(edit func(*routes)) {
	old := n.routes.Load()
	next := &routes{
		handlers: make(map[wire.SiteID]Handler, len(old.handlers)+1),
		links:    make(map[wire.SiteID]*outLink, len(old.links)+1),
		closed:   old.closed,
	}
	for id, h := range old.handlers {
		next.handlers[id] = h
	}
	for id, l := range old.links {
		next.links[id] = l
	}
	edit(next)
	n.routes.Store(next)
}

// outLink is the send side of one destination address: an unbounded FIFO
// drained by a single writer goroutine. The queue, connection and closed
// flag are guarded by mu; fails, buf and scratch are owned by the writer
// goroutine and touched by no one else.
type outLink struct {
	addr string

	mu     sync.Mutex
	queue  []wire.Message
	closed bool
	conn   net.Conn

	// wake carries at most one pending wakeup token for the writer. Senders
	// publish it with a non-blocking send after appending to the queue; the
	// writer re-checks the queue after every receive, so a stale or missing
	// token is harmless.
	wake chan struct{}

	// fails counts consecutive failed delivery attempts on this link and
	// drives the backoff before the next attempt. It persists across
	// batches — a dead destination keeps its backoff — and resets to zero
	// on any successful write, so one flaky window cannot pin a healthy
	// link at max backoff.
	fails int

	buf     []byte         // reused encode buffer: one batch, many frames
	scratch []wire.Message // reused batch slice, ping-ponged with take
}

// TCPOptions configures a TCPNetwork.
type TCPOptions struct {
	// Listen is the local listen address, e.g. ":7070". Empty means this
	// process only sends (a pure client).
	Listen string
	// Addrs maps every remote site to its host:port.
	Addrs map[wire.SiteID]string
	// Logf, if set, receives transport diagnostics. Defaults to discarding.
	Logf func(format string, args ...any)
	// DialTimeout bounds each outbound dial. Zero means 3s.
	DialTimeout time.Duration
	// WriteTimeout bounds each batch write: a peer that accepts the
	// connection but stops reading (full receive buffer, wedged process)
	// must not wedge the link's writer forever. On expiry the connection
	// and the whole in-flight batch are dropped — an omission failure,
	// which the protocols already survive. Zero means 2s.
	WriteTimeout time.Duration
	// MaxRetries is how many times a failed dial is retried before the
	// batch is dropped. Each retry sleeps a jittered exponential backoff:
	// RetryBase doubling per consecutive failure, capped at RetryCap, with
	// the actual sleep drawn from [d/2, d). Zero means 3; negative disables
	// retries. A failed *write* is never retried: part of the batch may
	// already sit in the peer's receive buffer, and resending it would
	// break at-most-once delivery.
	MaxRetries int
	// RetryBase is the first backoff step. Zero means 25ms.
	RetryBase time.Duration
	// RetryCap bounds each backoff step. Zero means 500ms.
	RetryCap time.Duration
	// Met, if set, receives transport counters (frames, batched messages,
	// bytes on wire, send retries) charged per sending site.
	Met *metrics.Registry
}

// NewTCPNetwork starts a TCP transport. If opts.Listen is non-empty the
// listener is bound immediately and inbound frames are dispatched to the
// handlers registered for their destination site.
func NewTCPNetwork(opts TCPOptions) (*TCPNetwork, error) {
	n := &TCPNetwork{
		addrs:        make(map[wire.SiteID]string, len(opts.Addrs)),
		links:        make(map[string]*outLink),
		inbound:      make(map[net.Conn]struct{}),
		logf:         opts.Logf,
		met:          opts.Met,
		dialTimeout:  opts.DialTimeout,
		writeTimeout: opts.WriteTimeout,
		maxRetries:   opts.MaxRetries,
		retryBase:    opts.RetryBase,
		retryCap:     opts.RetryCap,
		jitter:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	n.routes.Store(&routes{})
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	if n.dialTimeout <= 0 {
		n.dialTimeout = 3 * time.Second
	}
	if n.writeTimeout <= 0 {
		n.writeTimeout = 2 * time.Second
	}
	if n.maxRetries == 0 {
		n.maxRetries = 3
	} else if n.maxRetries < 0 {
		n.maxRetries = 0
	}
	if n.retryBase <= 0 {
		n.retryBase = 25 * time.Millisecond
	}
	if n.retryCap <= 0 {
		n.retryCap = 500 * time.Millisecond
	}
	for id, a := range opts.Addrs {
		n.addrs[id] = a
	}
	if opts.Listen != "" {
		ln, err := net.Listen("tcp", opts.Listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", opts.Listen, err)
		}
		n.ln = ln
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// Addr returns the bound listen address (useful with ":0" listens in tests).
func (n *TCPNetwork) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// SetAddr adds or updates a remote site's address.
func (n *TCPNetwork) SetAddr(id wire.SiteID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs[id] = addr
	// The next send to id resolves its link again, against the new address.
	n.publishLocked(func(r *routes) { delete(r.links, id) })
}

// Register implements Network.
func (n *TCPNetwork) Register(id wire.SiteID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.publishLocked(func(r *routes) { r.handlers[id] = h })
}

// Send implements Network: deliver locally when the destination is hosted
// in-process, otherwise enqueue on the destination's link. Send returns as
// soon as the message is queued; the link's writer goroutine frames,
// batches and writes it, so senders never block on the network.
func (n *TCPNetwork) Send(m wire.Message) {
	r := n.routes.Load()
	if r.closed {
		return
	}
	// An in-process hand-over comes off no delivery loop, even when m is a
	// received message being passed on.
	m.Rx = nil
	if h := r.handlers[m.To]; h != nil {
		h(m)
		return
	}
	l := r.links[m.To]
	if l == nil {
		l = n.linkFor(m.To)
	}
	if l == nil {
		n.logf("transport: no address for site %s, dropping %s", m.To, m)
		return
	}
	l.enqueue(m)
}

// SendBatch implements BatchSender: contiguous same-destination runs enter
// their link's queue in one append, so a site's piggybacked traffic to one
// peer (an ack plus the next transaction's vote request, say) stays
// adjacent and rides one physical frame whenever it fits the batch caps.
func (n *TCPNetwork) SendBatch(msgs []wire.Message) {
	for i := 0; i < len(msgs); {
		j := i + 1
		for j < len(msgs) && msgs[j].To == msgs[i].To {
			j++
		}
		run := msgs[i:j]
		r := n.routes.Load()
		if r.closed {
			return
		}
		i = j
		if h := r.handlers[run[0].To]; h != nil {
			for _, m := range run {
				m.Rx = nil
				h(m)
			}
			continue
		}
		l := r.links[run[0].To]
		if l == nil {
			l = n.linkFor(run[0].To)
		}
		if l == nil {
			n.logf("transport: no address for site %s, dropping %d messages", run[0].To, len(run))
			continue
		}
		l.enqueueAll(run)
	}
}

// linkFor is the slow path of a send: the first message to id since the
// network started or id's address changed. It returns the link for id's
// address, creating it and starting its writer goroutine on first use, and
// publishes the route so later sends find it without the lock. It returns nil
// when the address book has no entry or the network is closed.
func (n *TCPNetwork) linkFor(id wire.SiteID) *outLink {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, ok := n.addrs[id]
	if !ok || n.routes.Load().closed {
		return nil
	}
	l := n.links[addr]
	if l == nil {
		l = &outLink{addr: addr, wake: make(chan struct{}, 1)}
		n.links[addr] = l
		n.wg.Add(1)
		go n.runLink(l)
	}
	n.publishLocked(func(r *routes) { r.links[id] = l })
	return l
}

func (l *outLink) enqueue(m wire.Message) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.queue = append(l.queue, m)
	l.mu.Unlock()
	l.signal()
}

func (l *outLink) enqueueAll(msgs []wire.Message) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.queue = append(l.queue, msgs...)
	l.mu.Unlock()
	l.signal()
}

func (l *outLink) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// takeLocked moves up to max queued messages into the writer's scratch
// slice. Caller holds l.mu.
func (l *outLink) takeLocked(max int) []wire.Message {
	k := len(l.queue)
	if k > max {
		k = max
	}
	batch := append(l.scratch[:0], l.queue[:k]...)
	rem := copy(l.queue, l.queue[k:])
	l.queue = l.queue[:rem]
	return batch
}

// waitBatch blocks until traffic is queued or the link closes, then claims
// up to max messages. A nil return means the link is closed.
//
// A writer that had to wait yields once before it claims: the sender that
// woke it is usually in the middle of a burst — a delivery batch's staged
// votes, the replies of executions readied by the same batch — and the
// scheduler runs the goroutine woken last first, so without the yield the
// writer ships the first message of the burst alone and the rest in a second
// frame. Yielding costs nothing on an idle process (nothing else is runnable);
// on a busy one, whatever the goroutines already runnable wanted to send
// rides this write too.
func (l *outLink) waitBatch(max int) []wire.Message {
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return nil
		}
		if len(l.queue) > 0 {
			batch := l.takeLocked(max)
			l.mu.Unlock()
			return batch
		}
		l.mu.Unlock()
		<-l.wake
		runtime.Gosched()
	}
}

func (l *outLink) close() {
	l.mu.Lock()
	l.closed = true
	l.queue = nil
	c := l.conn
	l.conn = nil
	l.mu.Unlock()
	if c != nil {
		c.Close() // unblock an in-flight Write immediately
	}
	l.signal()
}

// maxBatch caps how many message frames one physical write may carry, so one
// write's encode buffer and the peer's per-read work stay bounded.
const maxBatch = 128

// runLink is the link's writer goroutine: it claims a batch and hands it to
// deliverBatch for one physical write.
func (n *TCPNetwork) runLink(l *outLink) {
	defer n.wg.Done()
	for {
		batch := l.waitBatch(maxBatch)
		if batch == nil {
			return
		}
		n.deliverBatch(l, batch)
		l.scratch = batch[:0]
	}
}

// deliverBatch encodes the batch into the link's reused buffer and writes
// it in one syscall, dialing and backing off as needed. Dial failures are
// retried up to maxRetries; a failed write drops the whole batch with no
// retry, because a partial write may already have delivered a prefix of the
// frames and resending them would violate at-most-once delivery.
func (n *TCPNetwork) deliverBatch(l *outLink, batch []wire.Message) {
	buf := l.buf[:0]
	kept := 0
	for i := range batch {
		b, err := wire.EncodeInto(buf, &batch[i])
		if err != nil {
			n.logf("transport: dropping unencodable %s: %v", batch[i], err)
			continue
		}
		buf = b
		kept++
	}
	l.buf = buf
	if kept == 0 {
		return
	}
	from := batch[0].From

	for attempt := 0; ; attempt++ {
		if l.fails > 0 {
			// Back off before touching the wire again. The counter is the
			// link's consecutive-failure streak, not this batch's attempt
			// number, so a dead destination keeps its long backoff across
			// batches instead of hammering redials at base rate.
			time.Sleep(n.backoff(l.fails))
		}
		if n.isClosed() || l.isClosed() {
			return
		}
		if attempt > 0 {
			if n.met != nil {
				n.met.NetRetry(from)
			}
			n.logf("transport: retry %d/%d for batch of %d to %s", attempt, n.maxRetries, kept, l.addr)
		}
		conn := l.currentConn()
		if conn == nil {
			c, err := net.DialTimeout("tcp", l.addr, n.dialTimeout)
			if err != nil {
				n.logf("transport: dial %s: %v", l.addr, err)
				l.fails++
				if attempt >= n.maxRetries {
					n.logf("transport: dropping batch of %d to %s after %d attempts", kept, l.addr, attempt+1)
					return
				}
				continue
			}
			conn = l.install(c)
			if conn == nil {
				return // link closed while dialing
			}
		}
		// The write deadline bounds how long a stalled peer — one that
		// accepted the connection but stopped reading — can hold this
		// link's writer.
		conn.SetWriteDeadline(time.Now().Add(n.writeTimeout))
		var t0 time.Time
		if n.met != nil {
			t0 = time.Now()
		}
		_, err := conn.Write(buf)
		if err == nil {
			conn.SetWriteDeadline(time.Time{})
			l.fails = 0
			if n.met != nil {
				n.met.Frame(from, kept, len(buf))
				n.met.Observe(metrics.SpanFrameFlush, time.Since(t0))
			}
			return
		}
		l.dropConn(conn)
		l.fails++
		n.logf("transport: write to %s failed (%v); dropping batch of %d", l.addr, err, kept)
		return
	}
}

func (n *TCPNetwork) isClosed() bool { return n.routes.Load().closed }

func (l *outLink) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func (l *outLink) currentConn() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// install publishes a freshly dialed connection on the link, unless the
// link closed while the dial was in flight.
func (l *outLink) install(c net.Conn) net.Conn {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		c.Close()
		return nil
	}
	l.conn = c
	l.mu.Unlock()
	return c
}

// dropConn tears a connection down so the next attempt redials.
func (l *outLink) dropConn(c net.Conn) {
	c.Close()
	l.mu.Lock()
	if l.conn == c {
		l.conn = nil
	}
	l.mu.Unlock()
}

// backoff returns the sleep before an attempt that follows `fails`
// consecutive failures: retryBase doubling per failure, capped at retryCap,
// with the actual value drawn uniformly from [d/2, d) so synchronized
// senders don't thunder in lockstep.
func (n *TCPNetwork) backoff(fails int) time.Duration {
	d := n.retryBase
	for i := 1; i < fails && d < n.retryCap; i++ {
		d *= 2
	}
	if d > n.retryCap {
		d = n.retryCap
	}
	n.jitterMu.Lock()
	j := time.Duration(n.jitter.Int63n(int64(d/2) + 1))
	n.jitterMu.Unlock()
	return d/2 + j
}

// Close implements Network. Queued but unwritten messages are dropped —
// from the peers' point of view an omission failure, indistinguishable
// from this process crashing a moment earlier.
func (n *TCPNetwork) Close() {
	n.mu.Lock()
	if n.routes.Load().closed {
		n.mu.Unlock()
		return
	}
	n.publishLocked(func(r *routes) {
		r.closed = true
		r.links = nil
	})
	ln := n.ln
	links := n.links
	n.links = map[string]*outLink{}
	inbound := n.inbound
	n.inbound = map[net.Conn]struct{}{}
	n.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for c := range inbound {
		c.Close()
	}
	for _, l := range links {
		l.close()
	}
	n.wg.Wait()
}

func (n *TCPNetwork) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.routes.Load().closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

func (n *TCPNetwork) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	// The bufio layer means one read syscall pulls a whole batch of frames
	// off the wire; the FrameReader then decodes them out of a reused body
	// buffer with interned site identifiers — the receive half of the
	// zero-allocation path.
	fr := wire.NewFrameReader(bufio.NewReader(conn))
	// rx tells the handler, in band, what this loop already knows about the
	// next message. A frame that is complete in the read buffer is decoded
	// before the current one is delivered, so the hint is exact: the next
	// call on this goroutine goes to the same site and no read stands between
	// the two. What one read pulled off the wire is thereby a delivery batch,
	// and a handler may stage its forced writes across it (DESIGN.md §7).
	var rx wire.Delivery
	m, err := fr.ReadFrame()
	for err == nil {
		var next wire.Message
		ahead := fr.NextBuffered()
		if ahead {
			next, err = fr.ReadFrame()
		}
		r := n.routes.Load()
		if r.closed {
			return
		}
		if h := r.handlers[m.To]; h != nil {
			rx.More = ahead && err == nil && next.To == m.To
			m.Rx = &rx
			h(m)
		} else {
			n.logf("transport: no handler for site %s, dropping %s", m.To, m)
		}
		if ahead {
			m = next
		} else {
			m, err = fr.ReadFrame()
		}
	}
	// Peer closed or garbage: drop the connection.
}

var _ Network = (*TCPNetwork)(nil)
var _ Network = (*ChanNetwork)(nil)
var _ BatchSender = (*TCPNetwork)(nil)
var _ BatchSender = (*ChanNetwork)(nil)
