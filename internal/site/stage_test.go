package site

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"prany/internal/transport"
	"prany/internal/wal"
	"prany/internal/wire"
)

// loopNet is a Network that is one delivery loop: the test hands the site
// its inbound messages as explicit delivery batches, the way a connection's
// read loop does, and everything the site sends is written to a journal.
type loopNet struct {
	h  transport.Handler
	rx wire.Delivery

	mu      sync.Mutex
	journal []string
	sent    []wire.Message
	replies chan wire.Message
}

func (n *loopNet) Register(_ wire.SiteID, h transport.Handler) { n.h = h }
func (n *loopNet) Close()                                      {}

func (n *loopNet) Send(m wire.Message) {
	if m.Kind == wire.MsgExecReply {
		n.replies <- m
		return
	}
	n.mu.Lock()
	n.sent = append(n.sent, m)
	n.mu.Unlock()
	n.note(describe(m))
}

func (n *loopNet) note(s string) {
	n.mu.Lock()
	n.journal = append(n.journal, s)
	n.mu.Unlock()
}

func describe(m wire.Message) string {
	switch m.Kind {
	case wire.MsgVote:
		return fmt.Sprintf("vote %s %d", strings.ToLower(m.Vote.String()), m.Txn.Seq)
	case wire.MsgAck:
		return fmt.Sprintf("ack %d", m.Txn.Seq)
	case wire.MsgPhase2b:
		return fmt.Sprintf("phase2b %d", m.Txn.Seq)
	}
	return fmt.Sprintf("%s %d", m.Kind, m.Txn.Seq)
}

// deliver hands msgs to the site as one delivery batch: More is set on every
// message but the last.
func (n *loopNet) deliver(msgs ...wire.Message) {
	for i, m := range msgs {
		n.rx.More = i+1 < len(msgs)
		m.Rx = &n.rx
		n.h(m)
	}
}

// journalStore writes every physical append into the same journal as the
// sends, so a test reads off whether a message left before or after the
// write that covers its record.
type journalStore struct {
	*wal.MemStore
	n *loopNet
}

func (s *journalStore) Append(recs []wal.Record) error {
	var parts []string
	for _, r := range recs {
		parts = append(parts, fmt.Sprintf("%s %d", r.Kind, r.Txn.Seq))
	}
	err := s.MemStore.Append(recs)
	line := "append[" + strings.Join(parts, ", ") + "]"
	if err != nil {
		line += " FAILED"
	}
	s.n.note(line)
	return err
}

type stageRig struct {
	t     *testing.T
	net   *loopNet
	store *journalStore
	site  *Site
}

func newStageRig(t *testing.T, cfg Config) *stageRig {
	t.Helper()
	n := &loopNet{replies: make(chan wire.Message, 16)}
	st := &journalStore{MemStore: wal.NewMemStore(), n: n}
	cfg.ID, cfg.Net, cfg.LogStore = "p", n, st
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &stageRig{t: t, net: n, store: st, site: s}
}

func tx(seq uint64) wire.TxnID { return wire.TxnID{Coord: "c", Seq: seq} }

func prepare(seq uint64) wire.Message {
	return wire.Message{Kind: wire.MsgPrepare, Txn: tx(seq), From: "c", To: "p"}
}

func decision(seq uint64, o wire.Outcome) wire.Message {
	return wire.Message{Kind: wire.MsgDecision, Txn: tx(seq), From: "c", To: "p", Outcome: o}
}

// executed runs one put for each transaction at the site, each EXEC a
// delivery batch of its own, and waits for the replies.
func (r *stageRig) executed(seqs ...uint64) {
	r.t.Helper()
	for _, seq := range seqs {
		r.net.deliver(wire.Message{
			Kind: wire.MsgExec, Txn: tx(seq), From: "c", To: "p",
			Ops: []wire.Op{{Kind: wire.OpPut, Key: fmt.Sprint("k", seq), Value: "v"}},
		})
		select {
		case m := <-r.net.replies:
			if m.Err != "" {
				r.t.Fatalf("exec %d: %s", seq, m.Err)
			}
		case <-time.After(5 * time.Second):
			r.t.Fatalf("exec %d never replied", seq)
		}
	}
}

func (r *stageRig) wantJournal(want ...string) {
	r.t.Helper()
	r.net.mu.Lock()
	got := append([]string(nil), r.net.journal...)
	r.net.journal = nil
	r.net.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		r.t.Fatalf("journal:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// A participant's forced writes are staged across a delivery batch and
// forced once; every vote and acknowledgment still leaves after the write
// that covers its record, per-transaction order is the inline order, and a
// failed batch force sends every staged transaction down its failed-force
// path.
func TestDeliveryBatchForcesOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto wire.Protocol
		setup func(r *stageRig)
		batch []wire.Message
		want  []string
		after func(t *testing.T, r *stageRig)
	}{
		{
			name:  "three prepares, one append, three yes votes after it",
			proto: wire.PrN,
			setup: func(r *stageRig) { r.executed(1, 2, 3) },
			batch: []wire.Message{prepare(1), prepare(2), prepare(3)},
			want: []string{
				"append[prepared 1, prepared 2, prepared 3]",
				"vote yes 1", "vote yes 2", "vote yes 3",
			},
		},
		{
			name:  "a batch of one forces inline",
			proto: wire.PrN,
			setup: func(r *stageRig) { r.executed(1) },
			batch: []wire.Message{prepare(1)},
			want:  []string{"append[prepared 1]", "vote yes 1"},
		},
		{
			name:  "prepares and decisions of different transactions share the append",
			proto: wire.PrN,
			setup: func(r *stageRig) {
				r.executed(1, 2)
				r.net.deliver(prepare(1))
				r.wantJournal("append[prepared 1]", "vote yes 1")
			},
			batch: []wire.Message{decision(1, wire.Commit), prepare(2)},
			want:  []string{"append[commit 1, prepared 2]", "ack 1", "vote yes 2"},
		},
		{
			name:  "a failed batch force: superseding aborts logged, NO votes, nothing acknowledged",
			proto: wire.PrN,
			setup: func(r *stageRig) {
				r.executed(1, 2, 3)
				r.net.deliver(prepare(1))
				r.wantJournal("append[prepared 1]", "vote yes 1")
				r.store.FailNextAppend = errors.New("disk failure")
			},
			batch: []wire.Message{decision(1, wire.Commit), prepare(2), prepare(3)},
			want: []string{
				"append[commit 1, prepared 2, prepared 3] FAILED",
				"vote no 2", "vote no 3",
			},
			after: func(t *testing.T, r *stageRig) {
				// The records stay buffered for a later barrier, each orphan
				// promise superseded by a lazy abort; transaction 1 is prepared
				// again, waiting for the decision to be re-sent.
				var tail []string
				for _, rec := range r.site.Log().All()[1:] {
					tail = append(tail, fmt.Sprintf("%s %d", rec.Kind, rec.Txn.Seq))
				}
				want := []string{"commit 1", "prepared 2", "prepared 3", "abort 2", "abort 3"}
				if !reflect.DeepEqual(tail, want) {
					t.Fatalf("log tail %v, want %v", tail, want)
				}
				if got := r.site.Participant().InDoubt(); len(got) != 1 || got[0] != tx(1) {
					t.Fatalf("in doubt %v, want only transaction 1", got)
				}
				r.net.deliver(decision(1, wire.Commit))
				r.wantJournal("append[commit 1, prepared 2, prepared 3, abort 2, abort 3, commit 1]", "ack 1")
			},
		},
		{
			name:  "prepare then abort of the same transaction flushes between them",
			proto: wire.PrN,
			setup: func(r *stageRig) { r.executed(1, 2) },
			batch: []wire.Message{prepare(1), decision(1, wire.Abort), prepare(2)},
			want: []string{
				"append[prepared 1]", "vote yes 1",
				"append[abort 1, prepared 2]", "ack 1", "vote yes 2",
			},
		},
		{
			name:  "a PrC lazy commit record is covered by the batch's barrier",
			proto: wire.PrC,
			setup: func(r *stageRig) {
				r.executed(1, 2)
				r.net.deliver(prepare(1))
				r.wantJournal("append[prepared 1]", "vote yes 1")
			},
			batch: []wire.Message{prepare(2), decision(1, wire.Commit)},
			want:  []string{"append[commit 1, prepared 2]", "vote yes 2"},
		},
		{
			name:  "a message that names no transaction flushes first",
			proto: wire.PrN,
			setup: func(r *stageRig) { r.executed(1) },
			batch: []wire.Message{prepare(1), {Kind: wire.MsgRecoverSite, From: "c", To: "p"}},
			want:  []string{"append[prepared 1]", "vote yes 1", "RECOVER-SITE 0"}, // the echo comes last
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newStageRig(t, Config{Proto: tc.proto})
			tc.setup(r)
			r.net.deliver(tc.batch...)
			r.wantJournal(tc.want...)
			if tc.after != nil {
				tc.after(t, r)
			}
		})
	}
}

// Under a serial scheduler the hint is never honoured: every force is inline,
// which is what keeps the model checker's runs what they were.
func TestSerialSchedulerNeverStages(t *testing.T) {
	r := newStageRig(t, Config{Proto: wire.PrN, Sched: serial{}})
	r.executed(1, 2)
	r.net.deliver(prepare(1), prepare(2))
	r.wantJournal("append[prepared 1]", "vote yes 1", "append[prepared 2]", "vote yes 2")
}

type serial struct{}

func (serial) Serial() bool { return true }

// A crash discards a non-empty stage: no continuation runs against the dead
// engines, nothing was forced, and the recovered site sees none of it. The
// delivery loop's next batch starts a fresh stage.
func TestCrashDiscardsTheStage(t *testing.T) {
	r := newStageRig(t, Config{Proto: wire.PrN})
	r.executed(1, 2)
	// The loop is in the middle of a batch: two prepares staged, more to come.
	r.net.rx.More = true
	for _, m := range []wire.Message{prepare(1), prepare(2)} {
		m.Rx = &r.net.rx
		r.net.h(m)
	}
	r.wantJournal()
	r.site.Crash()
	r.net.deliver(prepare(3)) // the batch's last message reaches a dead site
	r.wantJournal()
	if err := r.site.Recover(); err != nil {
		t.Fatal(err)
	}
	if recs := r.site.Log().Records(); len(recs) != 0 {
		t.Fatalf("recovery sees %d records, want none: nothing was forced", len(recs))
	}
	if n := r.site.Participant().Pending(); n != 0 {
		t.Fatalf("recovered participant holds %d transactions", n)
	}
	// Same loop, next incarnation: the stale entries are dropped, not flushed.
	r.executed(4, 5)
	r.net.deliver(prepare(4), prepare(5))
	r.wantJournal("append[prepared 4, prepared 5]", "vote yes 4", "vote yes 5")
}

// An acceptor's accepts are staged like a participant's prepares: two
// VOTE-FORWARDs in one batch force once, and each Phase2b leaves after the
// write and reports exactly what that write made stable.
func TestAcceptorStagesAcrossTheBatch(t *testing.T) {
	r := newStageRig(t, Config{Proto: wire.PrN, Acceptors: []wire.SiteID{"p"}})
	forward := func(seq uint64, v wire.Vote) wire.Message {
		return wire.Message{
			Kind: wire.MsgVoteForward, Txn: tx(seq), From: "c", To: "p",
			Insts:  []wire.InstanceVote{{Part: "x", Vote: v}},
			Roster: []wire.RosterEntry{{ID: "x", Proto: wire.PrN}},
		}
	}
	r.net.deliver(forward(1, wire.VoteYes), forward(2, wire.VoteNo))
	r.wantJournal("append[paxos-accept 1, paxos-accept 2]", "phase2b 1", "phase2b 2")

	stable := map[wire.TxnID][]wire.InstanceVote{}
	for _, rec := range r.site.Log().Records() {
		for _, v := range rec.Votes {
			stable[rec.Txn] = append(stable[rec.Txn], wire.InstanceVote{Part: v.Part, Vote: v.Vote, Bal: v.Bal})
		}
	}
	r.net.mu.Lock()
	defer r.net.mu.Unlock()
	if len(r.net.sent) != 2 {
		t.Fatalf("%d messages sent, want two Phase2b", len(r.net.sent))
	}
	for _, m := range r.net.sent {
		if !reflect.DeepEqual(m.Insts, stable[m.Txn]) {
			t.Fatalf("Phase2b for %s reports %v, the log holds %v", m.Txn, m.Insts, stable[m.Txn])
		}
	}
}
