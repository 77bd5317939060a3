package main

import (
	"sync/atomic"
	"time"

	"prany/internal/site"
	"prany/internal/transport"
	"prany/internal/wal"
	"prany/internal/wire"
)

// The timing shims sit at the public seams a site is configured through —
// Config.LogStore, Config.Net, Config.RM — so every per-layer number is
// taken from outside the program. They exist only in a traced run;
// end-to-end metrics are measured without them.

// spanName identifies a span kind in the trace.
type spanName uint8

const (
	spClientTxn spanName = iota
	spClientBegin
	spClientExec
	spClientCommit
	spNetSend
	spStoreAppend
	spRMExec
	spRMPrepare
	spRMCommit
	spRMAbort
	spHandler // + wire.MsgKind
)

const numMsgKinds = int(wire.MsgSyncState) + 1

func (n spanName) String() string {
	switch n {
	case spClientTxn:
		return "client.txn"
	case spClientBegin:
		return "client.begin"
	case spClientExec:
		return "client.exec"
	case spClientCommit:
		return "client.commit"
	case spNetSend:
		return "transport.send"
	case spStoreAppend:
		return "wal.store_append"
	case spRMExec:
		return "kvstore.exec"
	case spRMPrepare:
		return "kvstore.prepare"
	case spRMCommit:
		return "kvstore.commit"
	case spRMAbort:
		return "kvstore.abort"
	}
	return "handler." + wire.MsgKind(n-spHandler).String()
}

func (n spanName) client() bool { return n <= spClientCommit }

// span is one timed interval at a layer boundary. Spans of one transaction
// share txn (the coordinator-issued sequence number); parent is filled in
// after the run from interval containment.
type span struct {
	txn        uint64
	start, end int64 // ns since tracer.base
	site       uint8 // index into cluster.nodes
	name       spanName
}

// buf is a preallocated buffer with a lock-free cursor: spans for the
// trace, raw durations for exact percentiles. Items past the capacity are
// dropped, never allocated for.
type buf[T any] struct {
	items []T
	n     atomic.Int64
}

func (b *buf[T]) add(x T) {
	if i := b.n.Add(1) - 1; i < int64(len(b.items)) {
		b.items[i] = x
	}
}

func (b *buf[T]) all() []T {
	return b.items[:min(b.n.Load(), int64(len(b.items)))]
}

// opStat is a count and a total duration, updated lock-free.
type opStat struct{ n, ns atomic.Int64 }

func (o *opStat) add(d int64) {
	o.n.Add(1)
	o.ns.Add(d)
}

func (o *opStat) meanUS() float64 {
	if n := o.n.Load(); n > 0 {
		return float64(o.ns.Load()) / float64(n) / 1e3
	}
	return 0
}

// tracer owns the clock, the on/off switch and the per-site tallies of one
// traced run. The switch is on only inside measured rounds, so warm-up,
// preload, quiesce and checkpoint traffic is not counted.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	every uint64
	sites []*siteTrace
}

func newTracer(w *workload, sites int) *tracer {
	t := &tracer{base: time.Now(), every: w.TraceEvery}
	for i := 0; i < sites; i++ {
		t.sites = append(t.sites, &siteTrace{
			t: t, idx: uint8(i),
			spans:  buf[span]{items: make([]span, 1<<18)},
			execNS: buf[int64]{items: make([]int64, 1<<21)},
		})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) sampled(txn uint64) bool { return txn%t.every == 0 }

// siteTrace is what the three shims of one site record into.
type siteTrace struct {
	t   *tracer
	idx uint8

	handler [numMsgKinds]opStat
	rm      [4]opStat // exec, prepare, commit, abort
	// Physical Store.Append calls, attributed to the role of the batch's
	// last record (the forced one), and the records they carried.
	appends [3]opStat
	recs    [3]atomic.Int64
	sends   opStat // Send + SendBatch calls

	execNS buf[int64] // every kvstore Exec duration
	spans  buf[span]
}

func (st *siteTrace) span(name spanName, txn uint64, start, end int64) {
	if st.t.sampled(txn) {
		st.spans.add(span{txn: txn, start: start, end: end, site: st.idx, name: name})
	}
}

// timedStore times every physical append. newTimedStore keeps wal.Rewriter
// visible when the inner store has it: hiding it would silently turn the
// two-phase checkpoint rewrite off and measure a different program.
type timedStore struct {
	wal.Store
	st *siteTrace
}

type timedRewriterStore struct{ timedStore }

func newTimedStore(inner wal.Store, st *siteTrace) wal.Store {
	ts := timedStore{Store: inner, st: st}
	if _, ok := inner.(wal.Rewriter); ok {
		return &timedRewriterStore{ts}
	}
	return &ts
}

func (s *timedStore) Append(recs []wal.Record) error {
	if !s.st.t.on.Load() || len(recs) == 0 {
		return s.Store.Append(recs)
	}
	t0 := s.st.t.now()
	err := s.Store.Append(recs)
	t1 := s.st.t.now()
	last := recs[len(recs)-1]
	role := int(last.Role)
	if role >= len(s.st.appends) {
		role = 0
	}
	s.st.appends[role].add(t1 - t0)
	s.st.recs[role].Add(int64(len(recs)))
	s.st.span(spStoreAppend, last.Txn.Seq, t0, t1)
	return err
}

func (s *timedRewriterStore) BeginRewrite(recs []wal.Record) (wal.PendingRewrite, error) {
	return s.Store.(wal.Rewriter).BeginRewrite(recs)
}

// timedNet times Send, SendBatch and every handler the site registers.
// newTimedNet keeps transport.BatchSender visible when the inner network
// has it: hiding it would silently turn frame coalescing off.
type timedNet struct {
	transport.Network
	st *siteTrace
}

type timedBatchNet struct{ timedNet }

func newTimedNet(inner transport.Network, st *siteTrace) transport.Network {
	tn := timedNet{Network: inner, st: st}
	if _, ok := inner.(transport.BatchSender); ok {
		return &timedBatchNet{tn}
	}
	return &tn
}

func (n *timedNet) Register(id wire.SiteID, h transport.Handler) {
	st := n.st
	n.Network.Register(id, func(m wire.Message) {
		if !st.t.on.Load() {
			h(m)
			return
		}
		t0 := st.t.now()
		h(m)
		t1 := st.t.now()
		k := int(m.Kind)
		if k >= numMsgKinds {
			k = numMsgKinds - 1
		}
		st.handler[k].add(t1 - t0)
		st.span(spHandler+spanName(k), m.Txn.Seq, t0, t1)
	})
}

func (n *timedNet) Send(m wire.Message) {
	if !n.st.t.on.Load() {
		n.Network.Send(m)
		return
	}
	t0 := n.st.t.now()
	n.Network.Send(m)
	t1 := n.st.t.now()
	n.st.sends.add(t1 - t0)
	n.st.span(spNetSend, m.Txn.Seq, t0, t1)
}

func (n *timedBatchNet) SendBatch(msgs []wire.Message) {
	bs := n.Network.(transport.BatchSender)
	if !n.st.t.on.Load() || len(msgs) == 0 {
		bs.SendBatch(msgs)
		return
	}
	txn := msgs[0].Txn.Seq // read before the call: the transport may reuse msgs
	t0 := n.st.t.now()
	bs.SendBatch(msgs)
	t1 := n.st.t.now()
	n.st.sends.add(t1 - t0)
	n.st.span(spNetSend, txn, t0, t1)
}

// timedRM times the resource-manager calls a participant engine makes.
type timedRM struct {
	site.ResourceManager
	st *siteTrace
}

// time runs f as operation op: 0 exec, 1 prepare, 2 commit, 3 abort, the
// order of siteTrace.rm and of the spRM* span names.
func (r *timedRM) time(op int, txn wire.TxnID, f func()) {
	if !r.st.t.on.Load() {
		f()
		return
	}
	t0 := r.st.t.now()
	f()
	t1 := r.st.t.now()
	r.st.rm[op].add(t1 - t0)
	if op == 0 {
		r.st.execNS.add(t1 - t0)
	}
	r.st.span(spRMExec+spanName(op), txn.Seq, t0, t1)
}

func (r *timedRM) Exec(txn wire.TxnID, ops []wire.Op) (res []string, err error) {
	r.time(0, txn, func() { res, err = r.ResourceManager.Exec(txn, ops) })
	return
}

func (r *timedRM) Prepare(txn wire.TxnID) (writes []wal.Update, readOnly bool, err error) {
	r.time(1, txn, func() { writes, readOnly, err = r.ResourceManager.Prepare(txn) })
	return
}

func (r *timedRM) Commit(txn wire.TxnID) {
	r.time(2, txn, func() { r.ResourceManager.Commit(txn) })
}

func (r *timedRM) Abort(txn wire.TxnID) {
	r.time(3, txn, func() { r.ResourceManager.Abort(txn) })
}
