package main

import (
	"math"
	"testing"

	"prany/internal/transport"
	"prany/internal/wal"
	"prany/internal/wire"
)

// plainStore and plainNet have only the base interfaces, no optional
// capability.
type plainStore struct{ wal.Store }

type plainNet struct{ transport.Network }

// TestShimsKeepOptionalCapabilities: the log looks for wal.Rewriter on its
// store and the site looks for transport.BatchSender on its network. A
// timing shim that hid either would turn off the two-phase checkpoint
// rewrite or frame coalescing, and the traced run would measure a different
// program. A shim must not invent a capability either.
func TestShimsKeepOptionalCapabilities(t *testing.T) {
	w := &workloads[0]
	st := newTracer(w, 1).sites[0]

	mem := wal.NewMemStore()
	if _, ok := newTimedStore(mem, st).(wal.Rewriter); !ok {
		t.Error("timing store over MemStore lost wal.Rewriter")
	}
	fs, err := wal.OpenFileStore(t.TempDir() + "/x.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, ok := newTimedStore(fs, st).(wal.Rewriter); !ok {
		t.Error("timing store over FileStore lost wal.Rewriter")
	}
	if _, ok := newTimedStore(plainStore{mem}, st).(wal.Rewriter); ok {
		t.Error("timing store invented wal.Rewriter over a store without it")
	}

	tcp, err := transport.NewTCPNetwork(transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if _, ok := newTimedNet(tcp, st).(transport.BatchSender); !ok {
		t.Error("timing network over TCPNetwork lost transport.BatchSender")
	}
	if _, ok := newTimedNet(plainNet{tcp}, st).(transport.BatchSender); ok {
		t.Error("timing network invented transport.BatchSender over a network without it")
	}
}

// TestShimsCountWhatPassesThrough drives each shim directly and checks the
// tallies, with the switch off and on.
func TestShimsCountWhatPassesThrough(t *testing.T) {
	w := &workloads[0]
	tr := newTracer(w, 1)
	st := tr.sites[0]
	store := newTimedStore(wal.NewMemStore(), st)
	recs := []wal.Record{{Kind: wal.KEnd, Role: wal.RoleCoord}, {Kind: wal.KPrepared, Role: wal.RolePart}}

	if err := store.Append(recs); err != nil {
		t.Fatal(err)
	}
	if n := st.appends[wal.RolePart].n.Load(); n != 0 {
		t.Errorf("switch off: %d appends counted", n)
	}
	tr.on.Store(true)
	if err := store.Append(recs); err != nil {
		t.Fatal(err)
	}
	if n, r := st.appends[wal.RolePart].n.Load(), st.recs[wal.RolePart].Load(); n != 1 || r != 2 {
		t.Errorf("one append of two records ending in a participant record: counted %d appends, %d records", n, r)
	}
	if got, err := store.Load(); err != nil || len(got) != 4 {
		t.Errorf("the shim changed what the store holds: %d records, err %v", len(got), err)
	}

	net := newTimedNet(transport.NewChanNetwork(), st)
	defer net.Close()
	got := make(chan wire.Message, 3)
	net.Register("b", func(m wire.Message) { got <- m })
	net.Send(wire.Message{Kind: wire.MsgPrepare, To: "b"})
	net.(transport.BatchSender).SendBatch([]wire.Message{{Kind: wire.MsgDecision, To: "b"}, {Kind: wire.MsgDecision, To: "b"}})
	for i := 0; i < 3; i++ {
		<-got
	}
	if n := st.sends.n.Load(); n != 2 {
		t.Errorf("one Send and one SendBatch: counted %d calls", n)
	}
	if n := st.handler[wire.MsgDecision].n.Load(); n != 2 {
		t.Errorf("two DECISION messages delivered: the handler shim counted %d", n)
	}
}

// TestTracedRunIsTheSameProgram compares a traced and an untraced 1-second
// run by the physical counts the sites' own Registries keep in both: log
// flushes per transaction (exact: the force path is serial) and messages
// per wire frame (timing-dependent, so within a tolerance). The store shim's
// own append count must equal the Registry's flush count.
func TestTracedRunIsTheSameProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("two 1-second runs")
	}
	w := &workloads[0]
	o := smokeOpts(t, w)
	physical := func(m *measurement) (syncsPerTxn, msgsPerFrame float64) {
		var syncs, frames, framed float64
		for _, r := range m.regs {
			syncs += float64(r.c.Syncs)
			frames += float64(r.c.Frames)
			framed += float64(r.c.FramesBatched)
		}
		return syncs / m.started(), framed / frames
	}
	plain, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	o.traced = true
	traced, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	ps, pf := physical(plain)
	ts, tf := physical(traced)
	if math.Abs(ts-ps) > 0.02*ps {
		t.Errorf("log flushes per txn: untraced %.4f, traced %.4f", ps, ts)
	}
	if math.Abs(tf-pf) > 0.25*pf {
		t.Errorf("messages per frame: untraced %.3f, traced %.3f", pf, tf)
	}
	var shimAppends, syncs int64
	for i, st := range traced.tr.sites {
		for r := range st.appends {
			shimAppends += st.appends[r].n.Load()
		}
		syncs += int64(traced.regs[i].c.Syncs)
	}
	if shimAppends != syncs {
		t.Errorf("store shim saw %d appends, the Registries count %d flushes", shimAppends, syncs)
	}
}
