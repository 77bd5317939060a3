package core

import (
	"strconv"
	"testing"

	"prany/internal/kvstore"
	"prany/internal/wal"
	"prany/internal/wire"
)

// BenchmarkParticipantPrepareDecision prices one transaction's pass through a
// PrN participant — one put, PREPARE (forced prepared record, yes vote),
// DECISION commit (forced commit record, enforcement, ack) — over a MemStore,
// where the device costs nothing and what is left is the handlers' own work.
// inline forces each record as its message is handled; staged delivers the
// messages in batches of eight with the More hint set and flushes each batch
// once. scripts/allocs.sh holds both to the ceilings in alloc.floors: staging
// must cost a MemStore site no allocation per message and next to no time.
func BenchmarkParticipantPrepareDecision(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch int
	}{{"inline", 1}, {"staged", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			log, err := wal.Open(wal.NewMemStore())
			if err != nil {
				b.Fatal(err)
			}
			sent := 0
			env := Env{ID: "p", Log: log, Send: func(wire.Message) { sent++ }}
			rm := kvstore.New()
			p := NewParticipant(env, wire.PrN, rm, false)
			var rx *wire.Delivery // nil: no delivery loop, every force inline
			if bc.batch > 1 {
				rx = &wire.Delivery{}
			}
			keys := make([]string, 64)
			for i := range keys {
				keys[i] = "k" + strconv.Itoa(i)
			}
			ops := make([]wire.Op, 1)
			// deliver hands one message kind for txns [lo, hi) to the
			// participant as one delivery batch, the way site.handle does.
			deliver := func(kind wire.MsgKind, lo, hi uint64) {
				for seq := lo; seq < hi; seq++ {
					m := wire.Message{
						Kind: kind, Txn: wire.TxnID{Coord: "c", Seq: seq}, From: "c", To: "p",
						Outcome: wire.Commit,
					}
					if rx != nil {
						rx.More = seq+1 < hi
					}
					st := OpenStage(rx, &env, m.Txn)
					if st != nil {
						m.Rx = rx
					}
					p.Handle(m)
					if st != nil && !rx.More {
						st.Flush()
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for lo := uint64(0); lo < uint64(b.N); lo += uint64(bc.batch) {
				hi := min(lo+uint64(bc.batch), uint64(b.N))
				for seq := lo; seq < hi; seq++ {
					txn := wire.TxnID{Coord: "c", Seq: seq}
					ops[0] = wire.Op{Kind: wire.OpPut, Key: keys[seq%64], Value: "v"}
					// What handleExec does, minus its worker goroutine.
					sh := p.txns.lock(txn)
					sh.m[txn] = &ptxn{coord: "c"}
					sh.mu.Unlock()
					if _, err := rm.Exec(txn, ops); err != nil {
						b.Fatal(err)
					}
				}
				deliver(wire.MsgPrepare, lo, hi)
				deliver(wire.MsgDecision, lo, hi)
			}
			b.StopTimer()
			if sent != 2*b.N {
				b.Fatalf("%d messages sent for %d transactions, want a vote and an ack each", sent, b.N)
			}
		})
	}
}
