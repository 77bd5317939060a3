package transport

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"prany/internal/wire"
)

// hinted records every delivered message together with the More hint as the
// handler saw it — the Delivery belongs to the delivery loop and is reused,
// so the hint must be read during the call.
type hinted struct {
	mu   sync.Mutex
	seqs []uint64
	more []bool
}

func (h *hinted) handle(m wire.Message) {
	h.mu.Lock()
	h.seqs = append(h.seqs, m.Txn.Seq)
	h.more = append(h.more, m.Rx != nil && m.Rx.More)
	h.mu.Unlock()
}

func (h *hinted) snapshot() ([]uint64, []bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.seqs...), append([]bool(nil), h.more...)
}

func (h *hinted) waitN(t *testing.T, n int) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool {
		seqs, _ := h.snapshot()
		return len(seqs) >= n
	})
}

func frame(t *testing.T, to wire.SiteID, seq uint64) []byte {
	t.Helper()
	m := msg("c", to, seq)
	b, err := wire.EncodeInto(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func cat(bs ...[]byte) []byte {
	var out []byte
	for _, b := range bs {
		out = append(out, b...)
	}
	return out
}

// The receive side's hint is exact: More is set on a message only when a
// complete next frame for the same site was already in the read buffer. A
// partial frame does not count, a frame for another site does not count, and
// a connection lost in the middle of a frame neither delivers the fragment
// nor repeats what was delivered before it.
func TestTCPDeliveryHint(t *testing.T) {
	type write struct {
		conn  int    // which connection writes (a new one is dialed on first use)
		bytes []byte // one Write call
		close bool   // close the connection after the write
		await int    // then wait until this many messages were delivered to "p"
	}
	f := func(seq uint64) []byte { return frame(t, "p", seq) }
	half := func(b []byte) ([]byte, []byte) { return b[:len(b)/2], b[len(b)/2:] }
	f2a, f2b := half(f(2))
	f3a, _ := half(f(3))
	for _, tc := range []struct {
		name   string
		writes []write
		seqs   []uint64 // delivered to "p", in order
		more   []bool
		other  int // messages delivered to site "q"
	}{
		{
			name:   "two frames in one write",
			writes: []write{{bytes: cat(f(1), f(2)), await: 2}},
			seqs:   []uint64{1, 2}, more: []bool{true, false},
		},
		{
			name: "a frame plus a partial next frame",
			writes: []write{
				{bytes: cat(f(1), f2a), await: 1},
				{bytes: f2b, await: 2},
			},
			seqs: []uint64{1, 2}, more: []bool{false, false},
		},
		{
			name:   "the next frame is for another site",
			writes: []write{{bytes: cat(f(1), frame(t, "q", 9), f(2), f(3)), await: 3}},
			seqs:   []uint64{1, 2, 3}, more: []bool{false, true, false}, other: 1,
		},
		{
			name: "reconnect mid-batch",
			writes: []write{
				{conn: 0, bytes: cat(f(1), f(2), f3a), close: true, await: 2},
				{conn: 1, bytes: cat(f(3), f(4)), await: 4},
			},
			seqs: []uint64{1, 2, 3, 4}, more: []bool{true, false, true, false},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server, err := NewTCPNetwork(TCPOptions{Listen: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			var p, q hinted
			server.Register("p", p.handle)
			server.Register("q", q.handle)

			conns := map[int]net.Conn{}
			for _, w := range tc.writes {
				c := conns[w.conn]
				if c == nil {
					if c, err = net.Dial("tcp", server.Addr()); err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					conns[w.conn] = c
				}
				if _, err := c.Write(w.bytes); err != nil {
					t.Fatal(err)
				}
				if w.close {
					c.Close()
				}
				p.waitN(t, w.await)
			}
			seqs, more := p.snapshot()
			if !reflect.DeepEqual(seqs, tc.seqs) || !reflect.DeepEqual(more, tc.more) {
				t.Fatalf("delivered %v with hints %v, want %v with %v", seqs, more, tc.seqs, tc.more)
			}
			if others, _ := q.snapshot(); len(others) != tc.other {
				t.Fatalf("site q got %d messages, want %d", len(others), tc.other)
			}
		})
	}
}

// A message handed over in-process by Send comes off no delivery loop: it
// carries no Delivery, even when it is a received message being passed on.
func TestTCPLocalSendCarriesNoDelivery(t *testing.T) {
	n, err := NewTCPNetwork(TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var got []*wire.Delivery
	n.Register("local", func(m wire.Message) { got = append(got, m.Rx) })
	m := msg("x", "local", 1)
	m.Rx = &wire.Delivery{More: true}
	n.Send(m)
	n.SendBatch([]wire.Message{m, m})
	if len(got) != 3 || got[0] != nil || got[1] != nil || got[2] != nil {
		t.Fatalf("in-process deliveries carried %v", got)
	}
}

// The mailbox gives the same account of what has already arrived: whatever
// queued while the handler was busy is one delivery batch, More set on all
// of it but the last.
func TestChanNetworkDeliveryHint(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	var h hinted
	entered, release := make(chan struct{}), make(chan struct{})
	first := true
	n.Register("p", func(m wire.Message) {
		h.handle(m)
		if first {
			first = false
			entered <- struct{}{}
			<-release
		}
	})
	n.Send(msg("c", "p", 1))
	<-entered
	n.Send(msg("c", "p", 2))
	n.SendBatch([]wire.Message{msg("c", "p", 3), msg("c", "p", 4)})
	close(release)
	h.waitN(t, 4)
	seqs, more := h.snapshot()
	if want := []bool{false, true, true, false}; !reflect.DeepEqual(more, want) {
		t.Fatalf("delivered %v with hints %v, want hints %v", seqs, more, want)
	}
}
