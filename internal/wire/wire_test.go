package wire

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTxnIDString(t *testing.T) {
	id := TxnID{Coord: "siteA", Seq: 42}
	if got := id.String(); got != "siteA:42" {
		t.Fatalf("String() = %q, want %q", got, "siteA:42")
	}
}

func TestParseTxnIDRoundTrip(t *testing.T) {
	cases := []TxnID{
		{Coord: "a", Seq: 0},
		{Coord: "siteA", Seq: 42},
		{Coord: "with:colon", Seq: 7}, // LastIndexByte must pick the final colon
		{Coord: "", Seq: 9},
	}
	for _, id := range cases {
		got, err := ParseTxnID(id.String())
		if err != nil {
			t.Fatalf("ParseTxnID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Errorf("round trip %v -> %v", id, got)
		}
	}
}

func TestParseTxnIDErrors(t *testing.T) {
	for _, s := range []string{"", "no-colon", "a:notanumber", "a:", "a:-1"} {
		if _, err := ParseTxnID(s); err == nil {
			t.Errorf("ParseTxnID(%q) succeeded, want error", s)
		}
	}
}

func TestTxnIDIsZero(t *testing.T) {
	if !(TxnID{}).IsZero() {
		t.Error("zero TxnID not reported as zero")
	}
	if (TxnID{Coord: "x"}).IsZero() || (TxnID{Seq: 1}).IsZero() {
		t.Error("non-zero TxnID reported as zero")
	}
}

func TestProtocolNames(t *testing.T) {
	want := map[Protocol]string{PrN: "PrN", PrA: "PrA", PrC: "PrC", PrAny: "PrAny", U2PC: "U2PC", C2PC: "C2PC", IYV: "IYV", CL: "CL"}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
		got, err := ParseProtocol(strings.ToLower(name))
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", strings.ToLower(name), got, err, p)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Error("ParseProtocol(bogus) succeeded")
	}
	if Protocol(200).String() == "" || Protocol(200).Valid() {
		t.Error("out-of-range protocol mishandled")
	}
}

func TestParticipantProtocol(t *testing.T) {
	for _, p := range []Protocol{PrN, PrA, PrC, IYV, CL} {
		if !p.ParticipantProtocol() {
			t.Errorf("%v should be a participant protocol", p)
		}
	}
	for _, p := range []Protocol{PrAny, U2PC, C2PC, Protocol(200)} {
		if p.ParticipantProtocol() {
			t.Errorf("%v should not be a participant protocol", p)
		}
	}
}

// TestRuleTable pins every column of the rule table, written out as read
// from the paper's Figures 1–4 and DESIGN.md §5 rather than computed from
// the rows. PrN's coordinator presumption is the "hidden" abort; IYV
// follows presumed-abort discipline; a CL coordinator logs everything, so
// absence means abort, and its participants ack both outcomes. U2PC and
// C2PC are never a transaction's chosen variant (their coordinators run
// Native), so their coordinator columns never run; they are pinned as the
// derivation gives them so the table stays total.
func TestRuleTable(t *testing.T) {
	const (
		N = PresumeNothing
		A = PresumeAbort
		C = PresumeCommit
	)
	type row struct {
		p                  Protocol
		part, coord        Presume
		ackC, ackA         bool // participants acknowledge commit / abort
		forceInit, forceAb bool // coordinator forces initiation / abort record
		endC, endA         bool // coordinator end record on commit / abort
		endsBoth           bool // the stated end-record column (PrAny only)
		onePhase, ships    bool
	}
	for _, r := range []row{
		{PrN, N, A, true, true, false, true, true, true, false, false, false},
		{PrA, A, A, true, false, false, false, true, false, false, false, false},
		{PrC, C, C, false, true, true, false, false, true, false, false, false},
		{PrAny, N, N, false, false, true, false, true, true, true, false, false},
		{U2PC, N, N, false, false, true, false, false, false, false, false, false},
		{C2PC, N, N, false, false, true, false, false, false, false, false, false},
		{IYV, A, A, true, false, false, false, true, false, false, true, false},
		{CL, N, A, true, true, false, true, true, true, false, false, true},
	} {
		rule := r.p.Rule()
		got := row{r.p, rule.Part, rule.Coord, r.p.Acks(Commit), r.p.Acks(Abort),
			rule.ForcesInitiation(), rule.ForcesAbort(), rule.EndsOn(Commit), rule.EndsOn(Abort),
			rule.EndsBoth, r.p.OnePhase(), r.p.ShipsWrites()}
		if got != r {
			t.Errorf("%v:\n got %+v\nwant %+v", r.p, got, r)
		}
	}
	if rule := Protocol(200).Rule(); rule != (Rule{}) {
		t.Errorf("undefined protocol has row %+v, want the empty row", rule)
	}
}

func TestPresumptions(t *testing.T) {
	// The presumption table is the heart of the paper's incompatibility:
	// PrN's hidden presumption and PrA presume abort, PrC presumes commit,
	// and PrAny has no a-priori presumption at all.
	cases := []struct {
		p    Protocol
		want Outcome
		ok   bool
	}{
		{PrN, Abort, true},
		{PrA, Abort, true},
		{PrC, Commit, true},
		{IYV, Abort, true}, // IYV follows presumed-abort discipline
		{CL, Abort, true},  // CL coordinators log everything; absence means abort
		{PrAny, 0, false},
		{U2PC, 0, false},
		{C2PC, 0, false},
	}
	for _, c := range cases {
		got, ok := c.p.Presumption()
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("%v.Presumption() = %v, %v; want %v, %v", c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestAckMatrix(t *testing.T) {
	// Figure 1-4 of the paper: PrN acks both outcomes, PrA acks only
	// commits, PrC acks only aborts.
	type row struct {
		p             Protocol
		commit, abort bool
	}
	for _, r := range []row{{PrN, true, true}, {PrA, true, false}, {PrC, false, true}, {IYV, true, false}, {CL, true, true}} {
		if r.p.Acks(Commit) != r.commit {
			t.Errorf("%v.Acks(Commit) = %v, want %v", r.p, r.p.Acks(Commit), r.commit)
		}
		if r.p.Acks(Abort) != r.abort {
			t.Errorf("%v.Acks(Abort) = %v, want %v", r.p, r.p.Acks(Abort), r.abort)
		}
	}
}

func TestOutcomeZeroValueIsAbort(t *testing.T) {
	// An unset outcome must never read as commit; the safer default is the
	// zero value.
	var o Outcome
	if o != Abort {
		t.Fatal("zero Outcome is not Abort")
	}
	if Abort.String() != "abort" || Commit.String() != "commit" {
		t.Error("Outcome.String wrong")
	}
}

func TestEnumStrings(t *testing.T) {
	if VoteYes.String() != "yes" || VoteNo.String() != "no" || VoteReadOnly.String() != "read-only" {
		t.Error("Vote.String wrong")
	}
	if OpGet.String() != "get" || OpPut.String() != "put" || OpDelete.String() != "delete" {
		t.Error("OpKind.String wrong")
	}
	if MsgPrepare.String() != "PREPARE" || MsgKind(99).String() == "" {
		t.Error("MsgKind.String wrong")
	}
}

func TestMessageString(t *testing.T) {
	m := Message{Kind: MsgVote, Txn: TxnID{"c", 1}, From: "p1", To: "c", Vote: VoteYes}
	if got := m.String(); !strings.Contains(got, "VOTE") || !strings.Contains(got, "yes") {
		t.Errorf("Message.String() = %q", got)
	}
	d := Message{Kind: MsgDecision, Txn: TxnID{"c", 1}, From: "c", To: "p1", Outcome: Commit}
	if got := d.String(); !strings.Contains(got, "commit") {
		t.Errorf("decision String() = %q", got)
	}
	e := Message{Kind: MsgExecReply, Err: "boom"}
	if got := e.String(); !strings.Contains(got, "boom") {
		t.Errorf("exec-reply String() = %q", got)
	}
}

func sampleMessages() []Message {
	return []Message{
		{},
		{Kind: MsgPrepare, Txn: TxnID{"coord", 7}, From: "coord", To: "p1"},
		{Kind: MsgVote, Txn: TxnID{"coord", 7}, From: "p1", To: "coord", Vote: VoteYes, Proto: PrC},
		{Kind: MsgDecision, Txn: TxnID{"coord", 7}, From: "coord", To: "p1", Outcome: Commit},
		{Kind: MsgAck, Txn: TxnID{"coord", 7}, From: "p1", To: "coord", Outcome: Abort},
		{Kind: MsgInquiry, Txn: TxnID{"coord", 7}, From: "p1", To: "coord", Proto: PrA},
		{
			Kind: MsgExec, Txn: TxnID{"c", 1}, From: "c", To: "p",
			Ops: []Op{{OpPut, "k1", "v1"}, {OpGet, "k2", ""}, {OpDelete, "k3", ""}},
		},
		{Kind: MsgExecReply, Txn: TxnID{"c", 1}, From: "p", To: "c", Results: []string{"", "val", "x"}},
		{Kind: MsgExecReply, Err: "lock timeout"},
		{
			Kind: MsgVote, Txn: TxnID{"c", 9}, From: "cl", To: "c", Vote: VoteYes, Proto: CL,
			Writes: []Update{
				{Key: "k1", Old: "o", OldExists: true, New: "n", NewExists: true},
				{Key: "k2", New: "n2", NewExists: true},
			},
		},
		{Kind: MsgRecoverSite, From: "cl", To: "c", Proto: CL},
	}
}

func messagesEqual(a, b Message) bool {
	if a.Kind != b.Kind || a.Txn != b.Txn || a.From != b.From || a.To != b.To ||
		a.Vote != b.Vote || a.Outcome != b.Outcome || a.Err != b.Err || a.Proto != b.Proto {
		return false
	}
	if len(a.Ops) != len(b.Ops) || len(a.Results) != len(b.Results) || len(a.Writes) != len(b.Writes) {
		return false
	}
	for i := range a.Writes {
		if a.Writes[i] != b.Writes[i] {
			return false
		}
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			return false
		}
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		body := AppendMessage(nil, &m)
		got, err := DecodeMessage(body)
		if err != nil {
			t.Fatalf("DecodeMessage(%v): %v", m, err)
		}
		if !messagesEqual(m, got) {
			t.Errorf("round trip changed message:\n in: %+v\nout: %+v", m, got)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := sampleMessages()[6]
	body := AppendMessage(nil, &m)
	for i := 0; i < len(body); i++ {
		if _, err := DecodeMessage(body[:i]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", i, len(body))
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	m := sampleMessages()[1]
	body := append(AppendMessage(nil, &m), 0xFF)
	if _, err := DecodeMessage(body); err == nil {
		t.Fatal("decode with trailing garbage succeeded")
	}
}

func TestDecodeImplausibleCounts(t *testing.T) {
	m := Message{Kind: MsgExec}
	body := AppendMessage(nil, &m)
	// The op count sits right after the fixed header and three strings;
	// rather than compute the offset, corrupt every aligned u32 position
	// and require decode to fail or round-trip, never panic or hang.
	for off := 0; off+4 <= len(body); off++ {
		corrupt := append([]byte(nil), body...)
		corrupt[off] = 0xFF
		corrupt[off+1] = 0xFF
		corrupt[off+2] = 0xFF
		corrupt[off+3] = 0x7F
		_, _ = DecodeMessage(corrupt) // must not panic
	}
}

func TestCodecQuick(t *testing.T) {
	// Property: every message assembled from generated components survives
	// an encode/decode round trip.
	f := func(kind uint8, coord, from, to string, seq uint64, vote, outcome uint8, keys []string, results []string, errs string) bool {
		m := Message{
			Kind:    MsgKind(kind % 7),
			Txn:     TxnID{Coord: SiteID(coord), Seq: seq},
			From:    SiteID(from),
			To:      SiteID(to),
			Vote:    Vote(vote % 3),
			Outcome: Outcome(outcome % 2),
			Err:     errs,
		}
		for i, k := range keys {
			m.Ops = append(m.Ops, Op{Kind: OpKind(i % 3), Key: k, Value: k + "v"})
		}
		m.Results = results
		got, err := DecodeMessage(AppendMessage(nil, &m))
		return err == nil && messagesEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf strings.Builder
	msgs := sampleMessages()
	for i := range msgs {
		if err := WriteFrame(&buf, &msgs[i]); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	r := strings.NewReader(buf.String())
	for i := range msgs {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !messagesEqual(msgs[i], got) {
			t.Errorf("frame %d changed in transit", i)
		}
	}
	if _, err := ReadFrame(r); err == nil {
		t.Error("ReadFrame past end succeeded")
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	r := strings.NewReader("\xff\xff\xff\xff")
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("huge frame length accepted")
	}
}
