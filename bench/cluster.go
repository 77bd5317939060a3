package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prany/internal/core"
	"prany/internal/kvstore"
	"prany/internal/metrics"
	"prany/internal/site"
	"prany/internal/transport"
	"prany/internal/wal"
	"prany/internal/wire"
)

// node is one site of the cluster with everything the benchmark holds on to
// from outside it: its own Registry (one per process in a real deployment),
// its listener, its stable store and its resource manager.
type node struct {
	id    wire.SiteID
	proto wire.Protocol
	met   *metrics.Registry
	tcp   *transport.TCPNetwork
	kv    *kvstore.Store
	path  string    // FileStore path; "" on MemStore
	raw   wal.Store // the store under any shim
	cfg   site.Config
	site  *site.Site
	st    *siteTrace // nil unless traced
}

// cluster is the 4-site loopback-TCP deployment: nodes[0] is the
// coordinator (PrN), nodes[1..3] are p1 (PrN), p2 (PrA), p3 (PrC).
type cluster struct {
	w     *workload
	dir   string
	nodes []*node
	tr    *tracer // nil unless traced

	mu       sync.Mutex // guards node.site against the ticker during restart
	stopTick chan struct{}
	tickDone sync.WaitGroup
	closed   sync.Once
}

func (c *cluster) coord() *site.Site { return c.nodes[0].site }
func (c *cluster) parts() []*node    { return c.nodes[1:] }

// newCluster builds the cluster the way cmd/prany-server and
// cmd/prany-coord build a site: one TCPNetwork and one Registry per site,
// a store, site.New. It sets no feature field of site.Config or
// transport.TCPOptions — whatever the zero value does is what ships and what
// is measured. tr non-nil installs the timing shims.
func newCluster(w *workload, dir string, tr *tracer) (_ *cluster, err error) {
	c := &cluster{w: w, dir: dir, tr: tr, stopTick: make(chan struct{})}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if w.File {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	ids := append([]wire.SiteID{coordID}, partIDs...)
	protos := append([]wire.Protocol{wire.PrN}, partProto...)
	pcp := core.NewPCP()
	for i, id := range ids {
		n := &node{id: id, proto: protos[i], met: metrics.NewRegistry(), kv: kvstore.New()}
		if tr != nil {
			n.st = tr.sites[i]
		}
		n.tcp, err = transport.NewTCPNetwork(transport.TCPOptions{Listen: "127.0.0.1:0", Met: n.met})
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		if i > 0 {
			pcp.Set(id, protos[i])
		}
	}
	// Full address mesh: the acceptors of paxos-file talk to each other and
	// to the coordinator; links are dialed on first use, so the unused
	// entries of the other workloads cost nothing.
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if a != b {
				a.tcp.SetAddr(b.id, b.tcp.Addr())
			}
		}
	}
	var acceptors []wire.SiteID
	if w.Paxos {
		acceptors = partIDs
	}
	// Participants first, the coordinator last, as a deployment starts them.
	for i := len(c.nodes) - 1; i >= 0; i-- {
		n := c.nodes[i]
		if w.File {
			n.path = filepath.Join(dir, string(n.id)+".wal")
		}
		if err := n.openStore(); err != nil {
			return nil, err
		}
		n.cfg = site.Config{
			ID: n.id, Proto: n.proto, PCP: pcp, Met: n.met,
			Net: n.tcp, RM: n.kv, Acceptors: acceptors,
		}
		if i == 0 {
			// prany-coord's default -vote-timeout.
			n.cfg.Coordinator = core.CoordinatorConfig{VoteTimeout: 2 * time.Second}
		}
		if n.st != nil {
			n.cfg.Net = newTimedNet(n.tcp, n.st)
			n.cfg.RM = &timedRM{ResourceManager: n.kv, st: n.st}
		}
		if err := n.start(); err != nil {
			return nil, err
		}
	}
	// The binaries tick every 500ms (-tick); so does the benchmark.
	c.tickDone.Add(1)
	go func() {
		defer c.tickDone.Done()
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.tick()
			case <-c.stopTick:
				return
			}
		}
	}()
	return c, nil
}

// openStore opens the node's stable store (reopening the file on a
// restart; a MemStore is the disk that outlives the process, so it is kept).
func (n *node) openStore() error {
	switch {
	case n.path != "":
		fs, err := wal.OpenFileStore(n.path)
		if err != nil {
			return err
		}
		n.raw = fs
	case n.raw == nil:
		n.raw = wal.NewMemStore()
	}
	return nil
}

// start runs site.New over the node's current store: a fresh start on an
// empty store, recovery on a non-empty one.
func (n *node) start() error {
	n.cfg.LogStore = n.raw
	if n.st != nil {
		n.cfg.LogStore = newTimedStore(n.raw, n.st)
	}
	s, err := site.New(n.cfg)
	if err != nil {
		return fmt.Errorf("site %s: %w", n.id, err)
	}
	n.site = s
	return nil
}

func (c *cluster) tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.site.Tick()
	}
}

func (c *cluster) quiesced() bool {
	for _, n := range c.nodes {
		if !n.site.Quiesced() {
			return false
		}
	}
	return true
}

// quiesce waits until no site holds protocol state: late acks have arrived,
// end records are written, every table entry is gone.
func (c *cluster) quiesce() error {
	deadline := time.Now().Add(15 * time.Second)
	lastTick := time.Now()
	for !c.quiesced() {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not quiesce within 15s")
		}
		if time.Since(lastTick) > 20*time.Millisecond {
			c.tick()
			lastTick = time.Now()
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// checkpoint calls Site.Checkpoint on every site and returns how long the
// four calls took. Without it the logs retain every record of the run.
func (c *cluster) checkpoint() (time.Duration, error) {
	t0 := time.Now()
	for _, n := range c.nodes {
		if _, err := n.site.Checkpoint(); err != nil {
			return 0, fmt.Errorf("checkpoint %s: %w", n.id, err)
		}
	}
	return time.Since(t0), nil
}

// restart crashes every site and recovers each from its own stable store —
// file stores are closed and reopened from their path — returning the time
// the four recoveries took.
func (c *cluster) restart() (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.site.Crash()
	}
	for _, n := range c.nodes {
		if n.path != "" {
			if err := n.raw.Close(); err != nil {
				return 0, err
			}
		}
	}
	t0 := time.Now()
	for _, n := range c.nodes {
		if err := n.openStore(); err != nil {
			return 0, err
		}
		if err := n.start(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// retained counts what the sites still hold after a quiesce and a
// checkpoint: protocol-table entries (from the Registries) and protocol
// records in the logs. Acceptor records are left out: a decided
// transaction's tombstone is permanent by design.
func (c *cluster) retained() (pt int64, recs int) {
	for _, n := range c.nodes {
		pt += n.met.Site(n.id).Retained()
		for _, r := range n.site.Log().Records() {
			if r.Kind != wal.KRecCheckpoint && r.Role != wal.RoleAcceptor {
				recs++
			}
		}
	}
	return pt, recs
}

// logBytes is the total size of the WAL files (0 on MemStore).
func (c *cluster) logBytes() int64 {
	var n int64
	for _, nd := range c.nodes {
		if nd.path != "" {
			if fi, err := os.Stat(nd.path); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// close stops the ticker, fail-stops every site (which stops its engines'
// goroutines), closes listeners and stores and removes the WAL directory.
// Closing twice is harmless.
func (c *cluster) close() {
	c.closed.Do(func() {
		close(c.stopTick)
		c.tickDone.Wait()
		for _, n := range c.nodes {
			if n.site != nil {
				n.site.Crash()
			}
		}
		for _, n := range c.nodes {
			n.tcp.Close()
			if n.raw != nil {
				n.raw.Close()
			}
		}
		if c.w.File {
			os.RemoveAll(c.dir)
		}
	})
}
