package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Wire format (little-endian throughout):
//
//	frame  := len:uint32 body
//	body   := kind:u8 proto:u8 vote:u8 outcome:u8
//	          txnCoord:str txnSeq:u64 from:str to:str
//	          nops:u32 {opKind:u8 key:str value:str}*
//	          nresults:u32 {result:str}*
//	          err:str
//	          nwrites:u32 {key:str old:str oldExists:u8 new:str newExists:u8}*
//	          ballot:u32 decided:u8
//	          ninsts:u32 {part:str vote:u8 bal:u32 free:u8}*
//	          nroster:u32 {id:str proto:u8}*
//	str    := len:u32 bytes
//
// The format is self-delimiting given the leading frame length and contains
// no pointers or reflection, so a malformed peer can at worst produce a
// decode error, never a panic.

// MaxFrame is the largest encoded message the codec will read or write.
// Protocol messages are small; the limit guards the TCP transport against a
// corrupt or hostile length prefix.
const MaxFrame = 16 << 20

type encodeBuf struct{ b []byte }

func (e *encodeBuf) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encodeBuf) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encodeBuf) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encodeBuf) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *encodeBuf) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// internTable deduplicates the small, repeating vocabulary of site
// identifiers a connection carries, so steady-state decoding performs no
// string allocation. The table is bounded: past maxInterned distinct
// identifiers, new ones fall back to a fresh allocation rather than letting
// a hostile peer grow the table without limit.
type internTable struct {
	m map[string]string
}

const maxInterned = 1024

func (t *internTable) get(b []byte) string {
	if t.m == nil {
		t.m = make(map[string]string)
	}
	// map lookup with a string(bytes) key does not allocate.
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t.m) < maxInterned {
		t.m[s] = s
	}
	return s
}

type decodeBuf struct {
	b   []byte
	off int
	err error
	// in, when set, interns site-identifier strings (the bounded, repeating
	// vocabulary); nil decodes every string fresh.
	in *internTable
}

func (d *decodeBuf) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated message reading %s at offset %d", what, d.off)
	}
}

func (d *decodeBuf) u8(what string) uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decodeBuf) u32(what string) uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decodeBuf) u64(what string) uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// bool rejects anything but the canonical 0/1 encodings: the codec
// guarantees exactly one byte string per message, so a sloppy true (any
// nonzero byte) is a malformed body, not an alternative spelling.
func (d *decodeBuf) bool(what string) bool {
	v := d.u8(what)
	if d.err == nil && v > 1 {
		d.err = fmt.Errorf("wire: non-canonical bool %#x reading %s at offset %d", v, what, d.off-1)
	}
	return v == 1
}

// enum rejects out-of-range enumeration bytes. Every enum in the format is a
// dense range starting at zero, so anything above max is not a message from a
// conforming peer — the decoder must refuse it rather than alias it onto a
// defined value (the same malleability class as the non-canonical bool).
func (d *decodeBuf) enum(what string, max uint8) uint8 {
	v := d.u8(what)
	if d.err == nil && v > max {
		d.err = fmt.Errorf("wire: out-of-range %s %d reading message at offset %d", what, v, d.off-1)
	}
	return v
}

func (d *decodeBuf) str(what string) string {
	n := int(d.u32(what))
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail(what)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// site decodes a site-identifier string, interning it when the buffer has a
// table. Only identifier fields use this — keys and values must not pollute
// the bounded table.
func (d *decodeBuf) site(what string) string {
	if d.in == nil {
		return d.str(what)
	}
	n := int(d.u32(what))
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail(what)
		return ""
	}
	s := d.in.get(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// AppendMessage encodes m and appends it to dst without the frame length,
// returning the extended slice.
func AppendMessage(dst []byte, m *Message) []byte {
	e := encodeBuf{b: dst}
	e.u8(uint8(m.Kind))
	e.u8(uint8(m.Proto))
	e.u8(uint8(m.Vote))
	e.u8(uint8(m.Outcome))
	e.str(string(m.Txn.Coord))
	e.u64(m.Txn.Seq)
	e.str(string(m.From))
	e.str(string(m.To))
	e.u32(uint32(len(m.Ops)))
	for _, op := range m.Ops {
		e.u8(uint8(op.Kind))
		e.str(op.Key)
		e.str(op.Value)
	}
	e.u32(uint32(len(m.Results)))
	for _, r := range m.Results {
		e.str(r)
	}
	e.str(m.Err)
	e.u32(uint32(len(m.Writes)))
	for _, w := range m.Writes {
		e.str(w.Key)
		e.str(w.Old)
		e.bool(w.OldExists)
		e.str(w.New)
		e.bool(w.NewExists)
	}
	e.u32(m.Ballot)
	e.bool(m.Decided)
	e.u32(uint32(len(m.Insts)))
	for _, iv := range m.Insts {
		e.str(string(iv.Part))
		e.u8(uint8(iv.Vote))
		e.u32(iv.Bal)
		e.bool(iv.Free)
	}
	e.u32(uint32(len(m.Roster)))
	for _, r := range m.Roster {
		e.str(string(r.ID))
		e.u8(uint8(r.Proto))
	}
	return e.b
}

// DecodeMessage decodes a message body produced by AppendMessage. It returns
// an error if the body is truncated, has trailing garbage, or declares
// absurd element counts.
func DecodeMessage(body []byte) (Message, error) {
	return decodeMessage(&decodeBuf{b: body})
}

// decodeMessage decodes one message body from d (which may carry an intern
// table for identifier strings).
func decodeMessage(d *decodeBuf) (Message, error) {
	body := d.b
	var m Message
	m.Kind = MsgKind(d.enum("kind", uint8(MsgSyncState)))
	m.Proto = Protocol(d.enum("proto", uint8(CL)))
	m.Vote = Vote(d.enum("vote", uint8(VoteReadOnly)))
	m.Outcome = Outcome(d.enum("outcome", uint8(Commit)))
	m.Txn.Coord = SiteID(d.site("txn coord"))
	m.Txn.Seq = d.u64("txn seq")
	m.From = SiteID(d.site("from"))
	m.To = SiteID(d.site("to"))

	nops := d.u32("op count")
	if d.err == nil && int(nops) > len(body) { // each op is at least 1 byte
		return Message{}, fmt.Errorf("wire: implausible op count %d in %d-byte body", nops, len(body))
	}
	if nops > 0 && d.err == nil {
		m.Ops = make([]Op, 0, nops)
		for i := uint32(0); i < nops && d.err == nil; i++ {
			var op Op
			op.Kind = OpKind(d.enum("op kind", uint8(OpDelete)))
			op.Key = d.str("op key")
			op.Value = d.str("op value")
			m.Ops = append(m.Ops, op)
		}
	}

	nres := d.u32("result count")
	if d.err == nil && int(nres) > len(body) {
		return Message{}, fmt.Errorf("wire: implausible result count %d in %d-byte body", nres, len(body))
	}
	if nres > 0 && d.err == nil {
		m.Results = make([]string, 0, nres)
		for i := uint32(0); i < nres && d.err == nil; i++ {
			m.Results = append(m.Results, d.str("result"))
		}
	}
	m.Err = d.str("err")

	nwrites := d.u32("write count")
	if d.err == nil && int(nwrites) > len(body) {
		return Message{}, fmt.Errorf("wire: implausible write count %d in %d-byte body", nwrites, len(body))
	}
	if nwrites > 0 && d.err == nil {
		m.Writes = make([]Update, 0, nwrites)
		for i := uint32(0); i < nwrites && d.err == nil; i++ {
			var w Update
			w.Key = d.str("write key")
			w.Old = d.str("write old")
			w.OldExists = d.bool("write oldExists")
			w.New = d.str("write new")
			w.NewExists = d.bool("write newExists")
			m.Writes = append(m.Writes, w)
		}
	}

	m.Ballot = d.u32("ballot")
	m.Decided = d.bool("decided")
	ninsts := d.u32("instance count")
	if d.err == nil && int(ninsts) > len(body) {
		return Message{}, fmt.Errorf("wire: implausible instance count %d in %d-byte body", ninsts, len(body))
	}
	if ninsts > 0 && d.err == nil {
		m.Insts = make([]InstanceVote, 0, ninsts)
		for i := uint32(0); i < ninsts && d.err == nil; i++ {
			var iv InstanceVote
			iv.Part = SiteID(d.site("instance part"))
			iv.Vote = Vote(d.enum("instance vote", uint8(VoteReadOnly)))
			iv.Bal = d.u32("instance ballot")
			iv.Free = d.bool("instance free")
			m.Insts = append(m.Insts, iv)
		}
	}
	nroster := d.u32("roster count")
	if d.err == nil && int(nroster) > len(body) {
		return Message{}, fmt.Errorf("wire: implausible roster count %d in %d-byte body", nroster, len(body))
	}
	if nroster > 0 && d.err == nil {
		m.Roster = make([]RosterEntry, 0, nroster)
		for i := uint32(0); i < nroster && d.err == nil; i++ {
			var r RosterEntry
			r.ID = SiteID(d.site("roster id"))
			r.Proto = Protocol(d.enum("roster proto", uint8(CL)))
			m.Roster = append(m.Roster, r)
		}
	}

	if d.err != nil {
		return Message{}, d.err
	}
	if d.off != len(body) {
		return Message{}, fmt.Errorf("wire: %d trailing bytes after message", len(body)-d.off)
	}
	return m, nil
}

// EncodeInto encodes m as a length-prefixed frame appended to dst and
// returns the extended slice. It is the allocation-free encode path: with a
// dst of sufficient capacity the call performs no allocation, so a writer
// that reuses its buffer encodes at zero allocs/op steady state. Batching
// callers append several frames into one buffer and hand the whole thing to
// a single Write. On error dst is returned unchanged (truncated back to its
// original length).
func EncodeInto(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = AppendMessage(dst, m)
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("wire: message of %d bytes exceeds frame limit", n)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// framePool recycles encode buffers for the one-shot WriteFrame path, so
// even callers without their own buffer pay no steady-state allocation.
var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 512)} }}

type frameBuf struct{ b []byte }

// WriteFrame encodes m as a length-prefixed frame on w.
func WriteFrame(w io.Writer, m *Message) error {
	fb := framePool.Get().(*frameBuf)
	b, err := EncodeInto(fb.b[:0], m)
	if err == nil {
		_, err = w.Write(b)
	}
	if cap(b) > cap(fb.b) {
		fb.b = b[:0]
	}
	framePool.Put(fb)
	return err
}

// ReadFrame reads one length-prefixed frame from r and decodes it. Each call
// allocates a fresh body buffer; connection loops should use a FrameReader,
// which reuses its buffer across frames.
func ReadFrame(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame || n > math.MaxInt32 {
		return Message{}, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, fmt.Errorf("wire: short frame body: %w", err)
	}
	return DecodeMessage(body)
}

// FrameReader decodes a stream of length-prefixed frames from one reader —
// the receive half of a connection. It reuses a single body buffer across
// frames and interns the site identifiers every message repeats, so a
// steady-state ReadFrame of a slice-free message (vote, ack, decision,
// prepare, inquiry) performs zero allocations.
type FrameReader struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
	in  internTable
}

// NewFrameReader returns a FrameReader over r. Wrap r in a bufio.Reader when
// it is a raw connection, so a batch of frames costs one read syscall.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// NextBuffered reports whether a complete next frame already sits in the
// underlying bufio.Reader, so that ReadFrame would return it without touching
// the connection. A length prefix with only part of its body behind it does
// not count, and neither does anything over a reader that is not a
// *bufio.Reader.
func (fr *FrameReader) NextBuffered() bool {
	br, ok := fr.r.(*bufio.Reader)
	if !ok || br.Buffered() < 4 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	return uint32(br.Buffered()-4) >= binary.LittleEndian.Uint32(hdr)
}

// ReadFrame reads and decodes the next frame. The returned Message does not
// alias the reader's internal buffer.
func (fr *FrameReader) ReadFrame() (Message, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:])
	if n > MaxFrame || n > math.MaxInt32 {
		return Message{}, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return Message{}, fmt.Errorf("wire: short frame body: %w", err)
	}
	return decodeMessage(&decodeBuf{b: body, in: &fr.in})
}
