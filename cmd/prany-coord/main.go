// Command prany-coord runs a coordinator site over TCP and drives one
// distributed transaction across prany-server participants, committing it
// with Presumed Any (or a straw-man strategy for experimentation).
//
// Usage:
//
//	prany-coord -id coord -listen :7100 -wal coord.wal \
//	            -site hotel=pra@127.0.0.1:7101 \
//	            -site airline=prc@127.0.0.1:7102 \
//	            put hotel room-42 booked \
//	            put airline seat-17C booked \
//	            get hotel room-42 \
//	            commit
//
// The trailing arguments are a tiny script: `put <site> <key> <value>`,
// `get <site> <key>`, `del <site> <key>`, and a final `commit` or `abort`.
// Restarting on the same -wal re-drives unfinished decisions (Section 4.2).
package main

import (
	"flag"
	"fmt"
	"log"

	"strings"
	"time"

	"prany/internal/core"
	"prany/internal/metrics"
	"prany/internal/obs"
	"prany/internal/site"
	"prany/internal/transport"
	"prany/internal/wal"
	"prany/internal/wire"
)

func main() {
	id := flag.String("id", "coord", "coordinator site identifier")
	listen := flag.String("listen", ":7100", "listen address")
	walPath := flag.String("wal", "", "write-ahead log file (default <id>.wal)")
	strategyName := flag.String("strategy", "prany", "integration strategy: prany, u2pc or c2pc")
	nativeName := flag.String("native", "prn", "native protocol for u2pc/c2pc")
	voteTimeout := flag.Duration("vote-timeout", 2*time.Second, "voting phase timeout")
	drain := flag.Duration("drain", 3*time.Second, "how long to drain acknowledgments before exiting")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint the WAL after this many forced records (0 disables; keeps recovery scans O(active))")
	httpAddr := flag.String("http", "", "introspection listen address (e.g. :7171): /metrics, /txns, /trace, /debug/pprof/")
	traceCap := flag.Int("trace-buf", 1<<14, "trace ring-buffer capacity in events (with -http)")
	var sites siteFlags
	flag.Var(&sites, "site", "participant as name=proto@host:port (repeatable)")
	acceptorsFlag := flag.String("acceptors", "", "replicated-decision acceptor set as name=host:port,... (2F+1 entries; decisions are then fixed by Paxos Commit over the set instead of the local log alone)")
	flag.Parse()

	if *walPath == "" {
		*walPath = *id + ".wal"
	}
	strategy, native, err := parseStrategy(*strategyName, *nativeName)
	if err != nil {
		log.Fatal(err)
	}
	acceptorIDs, acceptorAddrs, err := parseAcceptors(*acceptorsFlag)
	if err != nil {
		log.Fatal(err)
	}
	for aid, addr := range acceptorAddrs {
		if sites.addrs == nil {
			sites.addrs = make(map[wire.SiteID]string)
		}
		sites.addrs[aid] = addr
	}

	met := metrics.NewRegistry()
	var rec *obs.Recorder
	if *httpAddr != "" {
		rec = obs.NewRecorder(*traceCap)
	}

	net, err := transport.NewTCPNetwork(transport.TCPOptions{
		Listen: *listen,
		Addrs:  sites.addrs,
		Logf:   log.Printf,
		Met:    met,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	pcp := core.NewPCP()
	for name, proto := range sites.protos {
		pcp.Set(name, proto)
	}
	store, err := wal.OpenFileStore(*walPath)
	if err != nil {
		log.Fatal(err)
	}
	s, err := site.New(site.Config{
		ID:    wire.SiteID(*id),
		Proto: wire.PrN,
		Net:   net,
		PCP:   pcp,
		Coordinator: core.CoordinatorConfig{
			Strategy:    strategy,
			Native:      native,
			VoteTimeout: *voteTimeout,
		},
		LogStore:        store,
		CheckpointEvery: *ckptEvery,
		Acceptors:       acceptorIDs,
		Met:             met,
		Obs:             rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *httpAddr != "" {
		srv, err := obs.StartHTTP(*httpAddr, obs.Introspection{Met: met, Rec: rec, Txns: s.PTDump})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("introspection on http://%s", srv.Addr())
	}
	log.Printf("coordinator %s (%s) on %s, wal=%s", *id, strategy, net.Addr(), *walPath)

	script := flag.Args()
	if len(script) == 0 {
		// Nothing to run: recovery (if any) has been driven; drain and exit.
		drainAcks(s, *drain)
		return
	}

	txn := s.Begin()
	i := 0
	for i < len(script) {
		switch script[i] {
		case "put":
			need(script, i, 3)
			if err := txn.Put(wire.SiteID(script[i+1]), script[i+2], script[i+3]); err != nil {
				fail(txn, err)
			}
			i += 4
		case "get":
			need(script, i, 2)
			v, err := txn.Get(wire.SiteID(script[i+1]), script[i+2])
			if err != nil {
				fail(txn, err)
			}
			fmt.Printf("%s/%s = %q\n", script[i+1], script[i+2], v)
			i += 3
		case "del":
			need(script, i, 2)
			if err := txn.Delete(wire.SiteID(script[i+1]), script[i+2]); err != nil {
				fail(txn, err)
			}
			i += 3
		case "commit":
			outcome, err := txn.Commit()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("transaction %s: %s\n", txn.ID(), outcome)
			drainAcks(s, *drain)
			return
		case "abort":
			if err := txn.Abort(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("transaction %s: aborted by client\n", txn.ID())
			return
		default:
			log.Fatalf("unknown script word %q", script[i])
		}
	}
	log.Fatal("script must end with commit or abort")
}

// drainAcks ticks until the protocol table empties or the deadline passes,
// so the end record lands before the process exits.
func drainAcks(s *site.Site, d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if s.Coordinator().PTSize() == 0 {
			return
		}
		s.Tick()
		time.Sleep(100 * time.Millisecond)
	}
	if n := s.Coordinator().PTSize(); n > 0 {
		log.Printf("exiting with %d transaction(s) still draining; restart to re-drive", n)
	}
}

func need(script []string, i, args int) {
	if i+args >= len(script) {
		log.Fatalf("%s needs %d arguments", script[i], args)
	}
}

func fail(txn *site.Txn, err error) {
	_ = txn.Abort()
	log.Fatal(err)
}

// parseAcceptors decodes the -acceptors list: comma-separated name=host:port
// entries naming the 2F+1 replicated-decision sites.
func parseAcceptors(s string) ([]wire.SiteID, map[wire.SiteID]string, error) {
	if s == "" {
		return nil, nil, nil
	}
	var ids []wire.SiteID
	addrs := make(map[wire.SiteID]string)
	for _, ent := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(ent, "=")
		if !ok || name == "" || addr == "" {
			return nil, nil, fmt.Errorf("-acceptors wants name=host:port entries, got %q", ent)
		}
		ids = append(ids, wire.SiteID(name))
		addrs[wire.SiteID(name)] = addr
	}
	return ids, addrs, nil
}

func parseStrategy(s, native string) (core.Strategy, wire.Protocol, error) {
	n, err := wire.ParseProtocol(native)
	if err != nil {
		return 0, 0, err
	}
	switch strings.ToLower(s) {
	case "prany":
		return core.StrategyPrAny, n, nil
	case "u2pc":
		return core.StrategyU2PC, n, nil
	case "c2pc":
		return core.StrategyC2PC, n, nil
	default:
		return 0, 0, fmt.Errorf("unknown strategy %q", s)
	}
}

// siteFlags parses repeated name=proto@addr flags.
type siteFlags struct {
	addrs  map[wire.SiteID]string
	protos map[wire.SiteID]wire.Protocol
}

func (f *siteFlags) String() string {
	var parts []string
	for id, a := range f.addrs {
		parts = append(parts, fmt.Sprintf("%s=%s@%s", id, f.protos[id], a))
	}
	return strings.Join(parts, ",")
}

func (f *siteFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=proto@host:port, got %q", v)
	}
	protoName, addr, ok := strings.Cut(rest, "@")
	if !ok {
		return fmt.Errorf("want name=proto@host:port, got %q", v)
	}
	proto, err := wire.ParseProtocol(protoName)
	if err != nil || !proto.ParticipantProtocol() {
		return fmt.Errorf("bad protocol %q in %q", protoName, v)
	}
	if f.addrs == nil {
		f.addrs = make(map[wire.SiteID]string)
		f.protos = make(map[wire.SiteID]wire.Protocol)
	}
	f.addrs[wire.SiteID(name)] = addr
	f.protos[wire.SiteID(name)] = proto
	return nil
}
