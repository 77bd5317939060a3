package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"prany/internal/wire"
)

// FileStore is a file-backed Store. Each record is framed as
//
//	len:uint32  crc32c:uint32  payload
//
// and Append fsyncs after writing, so a record framed on disk is durable.
// Load stops at the first torn or corrupt frame, discarding the tail — the
// standard recovery contract of a physical log whose final write was
// interrupted by the crash.
type FileStore struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpenFileStore opens (creating if absent) the log file at path.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	return &FileStore{path: path, f: f}, nil
}

// Load implements Store. A torn final frame is truncated away, not reported
// as an error; corruption before the final frame is an error.
func (s *FileStore) Load() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	data, err := io.ReadAll(s.f)
	if err != nil {
		return nil, err
	}
	var recs []Record
	off := 0
	for off < len(data) {
		if off+8 > len(data) {
			break // torn header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n < 0 || off+8+n > len(data) {
			break // torn payload
		}
		payload := data[off+8 : off+8+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			if off+8+n == len(data) {
				break // torn final frame
			}
			return nil, fmt.Errorf("wal: checksum mismatch at offset %d of %s", off, s.path)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, fmt.Errorf("wal: offset %d of %s: %w", off, s.path, err)
		}
		recs = append(recs, rec)
		off += 8 + n
	}
	if off != len(data) {
		// Torn tail: truncate it so subsequent appends start clean.
		if err := s.f.Truncate(int64(off)); err != nil {
			return nil, err
		}
	}
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return nil, err
	}
	return recs, nil
}

// Append implements Store: frame, write, fsync.
func (s *FileStore) Append(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []byte
	for i := range recs {
		buf = appendFrame(buf, &recs[i])
	}
	if _, err := s.f.Write(buf); err != nil {
		return err
	}
	return s.f.Sync()
}

// renameFile and syncDir are swappable so tests can inject rename failures
// and observe directory fsyncs without a fault-injecting filesystem.
var (
	renameFile = os.Rename
	syncDir    = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		return err
	}
)

// Rewrite implements Store. The replacement is written to a temporary file
// which is fsynced and atomically renamed over the log, so a crash during
// checkpointing leaves either the old or the new image, never a mix. The
// parent directory is fsynced after the rename: without it a crash can
// resurrect the pre-checkpoint log — or lose the file entirely — on real
// filesystems, because the rename itself lives in directory metadata.
func (s *FileStore) Rewrite(recs []Record) error {
	pending, err := s.BeginRewrite(recs)
	if err != nil {
		return err
	}
	return pending.Commit(nil)
}

// BeginRewrite implements Rewriter: the new image is staged in a temporary
// file in the log's directory and fsynced, all without touching the live
// log file, so concurrent appends proceed against the old image.
func (s *FileStore) BeginRewrite(recs []Record) (PendingRewrite, error) {
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".ckpt-*")
	if err != nil {
		return nil, err
	}
	var buf []byte
	for i := range recs {
		buf = appendFrame(buf, &recs[i])
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return &filePending{s: s, tmp: tmp}, nil
}

type filePending struct {
	s   *FileStore
	tmp *os.File
}

// Commit appends suffix to the staged image, fsyncs it, renames it over the
// log and fsyncs the parent directory. The old file handle is closed only
// after the rename succeeded: a failed rename leaves the store fully usable
// on the old image (an earlier version closed first and a rename failure
// bricked every subsequent Append).
func (p *filePending) Commit(suffix []Record) error {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(suffix) > 0 {
		var buf []byte
		for i := range suffix {
			buf = appendFrame(buf, &suffix[i])
		}
		if _, err := p.tmp.Write(buf); err != nil {
			p.Abort()
			return err
		}
		if err := p.tmp.Sync(); err != nil {
			p.Abort()
			return err
		}
	}
	if err := renameFile(p.tmp.Name(), s.path); err != nil {
		p.Abort()
		return err
	}
	// The rename is durable only once the directory entry is: fsync it.
	// Even on error the in-process switch below matches what is now on
	// disk; the error tells the caller the checkpoint may not survive a
	// power loss.
	syncErr := syncDir(filepath.Dir(s.path))
	s.f.Close()
	s.f = p.tmp
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	return syncErr
}

// Abort discards the staged image.
func (p *filePending) Abort() {
	p.tmp.Close()
	os.Remove(p.tmp.Name())
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

func appendFrame(dst []byte, r *Record) []byte {
	payload := encodeRecord(nil, r)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// Record payload format (little-endian):
//
//	kind:u8  role:u8  lsn:u64  txnCoord:str  txnSeq:u64  coord:str
//	nparts:u32 {id:str proto:u8}*
//	nwrites:u32 {key:str old:str oldExists:u8 new:str newExists:u8}*
//	nckpt:u32 {txnCoord:str txnSeq:u64 role:u8 phase:u8 decided:u8 outcome:u8 coord:str}*
//	ballot:u32  nvotes:u32 {part:str vote:u8 bal:u32}*
//
// An earlier format had a tenth kind (9, the epoch decision) whose records
// carried one more section after the votes. decodeRecord refuses both by
// name (ErrRetiredFormat) instead of decoding such a log to something else.
func encodeRecord(dst []byte, r *Record) []byte {
	dst = append(dst, byte(r.Kind))
	dst = append(dst, byte(r.Role))
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = appendString(dst, string(r.Txn.Coord))
	dst = binary.LittleEndian.AppendUint64(dst, r.Txn.Seq)
	dst = appendString(dst, string(r.Coord))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Participants)))
	for _, p := range r.Participants {
		dst = appendString(dst, string(p.ID))
		dst = append(dst, byte(p.Proto))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Writes)))
	for _, w := range r.Writes {
		dst = appendString(dst, w.Key)
		dst = appendString(dst, w.Old)
		dst = appendBool(dst, w.OldExists)
		dst = appendString(dst, w.New)
		dst = appendBool(dst, w.NewExists)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Ckpt)))
	for _, e := range r.Ckpt {
		dst = appendString(dst, string(e.Txn.Coord))
		dst = binary.LittleEndian.AppendUint64(dst, e.Txn.Seq)
		dst = append(dst, byte(e.Role))
		dst = append(dst, byte(e.Phase))
		dst = appendBool(dst, e.Decided)
		dst = append(dst, byte(e.Outcome))
		dst = appendString(dst, string(e.Coord))
	}
	dst = binary.LittleEndian.AppendUint32(dst, r.Ballot)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Votes)))
	for _, v := range r.Votes {
		dst = appendString(dst, string(v.Part))
		dst = append(dst, byte(v.Vote))
		dst = binary.LittleEndian.AppendUint32(dst, v.Bal)
	}
	return dst
}

// ErrRetiredFormat is returned (wrapped) when a log holds a record only an
// older binary wrote: the epoch decision kind, or bytes after the votes
// section where that kind kept its members.
var ErrRetiredFormat = errors.New("wal: record in a retired format")

func decodeRecord(p []byte) (Record, error) {
	d := recDecoder{b: p}
	var r Record
	r.Kind = Kind(d.u8())
	r.Role = Role(d.u8())
	if d.err == nil {
		switch {
		case r.Kind == numKinds:
			return Record{}, fmt.Errorf("%w: kind %d (epoch decision)", ErrRetiredFormat, r.Kind)
		case r.Kind > numKinds:
			return Record{}, fmt.Errorf("unknown record kind %d", r.Kind)
		case r.Role >= numRoles:
			return Record{}, fmt.Errorf("unknown record role %d", r.Role)
		}
	}
	r.LSN = d.u64()
	r.Txn.Coord = wire.SiteID(d.str())
	r.Txn.Seq = d.u64()
	r.Coord = wire.SiteID(d.str())
	nparts := d.u32()
	if d.err == nil && int(nparts) > len(p) {
		return Record{}, fmt.Errorf("implausible participant count %d", nparts)
	}
	for i := uint32(0); i < nparts && d.err == nil; i++ {
		var pi ParticipantInfo
		pi.ID = wire.SiteID(d.str())
		pi.Proto = wire.Protocol(d.u8())
		r.Participants = append(r.Participants, pi)
	}
	nwrites := d.u32()
	if d.err == nil && int(nwrites) > len(p) {
		return Record{}, fmt.Errorf("implausible write count %d", nwrites)
	}
	for i := uint32(0); i < nwrites && d.err == nil; i++ {
		var w Update
		w.Key = d.str()
		w.Old = d.str()
		w.OldExists = d.bool()
		w.New = d.str()
		w.NewExists = d.bool()
		r.Writes = append(r.Writes, w)
	}
	nckpt := d.u32()
	if d.err == nil && int(nckpt) > len(p) {
		return Record{}, fmt.Errorf("implausible checkpoint-entry count %d", nckpt)
	}
	for i := uint32(0); i < nckpt && d.err == nil; i++ {
		var e CheckpointEntry
		e.Txn.Coord = wire.SiteID(d.str())
		e.Txn.Seq = d.u64()
		e.Role = Role(d.u8())
		e.Phase = CheckpointPhase(d.u8())
		e.Decided = d.bool()
		e.Outcome = wire.Outcome(d.u8())
		e.Coord = wire.SiteID(d.str())
		r.Ckpt = append(r.Ckpt, e)
	}
	r.Ballot = d.u32()
	nvotes := d.u32()
	if d.err == nil && int(nvotes) > len(p) {
		return Record{}, fmt.Errorf("implausible vote count %d", nvotes)
	}
	for i := uint32(0); i < nvotes && d.err == nil; i++ {
		var v VoteInfo
		v.Part = wire.SiteID(d.str())
		v.Vote = wire.Vote(d.u8())
		v.Bal = d.u32()
		r.Votes = append(r.Votes, v)
	}
	if d.err != nil {
		return Record{}, d.err
	}
	if d.off != len(p) {
		return Record{}, fmt.Errorf("%w: %d bytes after the votes section", ErrRetiredFormat, len(p)-d.off)
	}
	return r, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

type recDecoder struct {
	b   []byte
	off int
	err error
}

var errTruncatedRecord = errors.New("truncated record")

func (d *recDecoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.err = errTruncatedRecord
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *recDecoder) bool() bool { return d.u8() != 0 }

func (d *recDecoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.err = errTruncatedRecord
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *recDecoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.err = errTruncatedRecord
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *recDecoder) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.err = errTruncatedRecord
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}
