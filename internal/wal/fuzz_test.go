package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"prany/internal/wire"
)

// fuzzSeeds is one record of every live kind, each with the fields that kind
// populates; they seed FuzzDecodeRecord and the checked-in corpus under
// testdata/fuzz mirrors their encodings.
func fuzzSeeds() []Record {
	t7 := wire.TxnID{Coord: "coord", Seq: 7}
	roster := []ParticipantInfo{{ID: "pa", Proto: wire.PrA}, {ID: "pc", Proto: wire.PrC}}
	return []Record{
		{LSN: 1, Kind: KInitiation, Role: RoleCoord, Txn: t7, Participants: roster},
		{LSN: 2, Kind: KCommit, Role: RoleCoord, Txn: t7, Participants: roster},
		{LSN: 3, Kind: KAbort, Role: RolePart, Txn: t7, Coord: "coord"},
		{LSN: 4, Kind: KEnd, Role: RoleCoord, Txn: t7},
		{LSN: 5, Kind: KPrepared, Role: RolePart, Txn: t7, Coord: "coord",
			Writes: []Update{{Key: "k", Old: "o", OldExists: true, New: "n", NewExists: true}, {Key: "gone", Old: "x", OldExists: true}}},
		{LSN: 6, Kind: KRemoteWrites, Role: RoleCoord, Txn: t7, Coord: "cl1",
			Writes: []Update{{Key: "k", New: "n", NewExists: true}}},
		{LSN: 7, Kind: KRecCheckpoint, Role: RoleCoord, Ckpt: []CheckpointEntry{
			{Txn: t7, Role: RoleCoord, Phase: CkptDraining, Decided: true, Outcome: wire.Commit},
			{Txn: wire.TxnID{Coord: "other", Seq: 5}, Role: RolePart, Phase: CkptPrepared, Coord: "other"}}},
		{LSN: 8, Kind: KPaxosPromise, Role: RoleAcceptor, Txn: t7, Ballot: 257,
			Votes: []VoteInfo{{Part: "pa"}}},
		{LSN: 9, Kind: KPaxosAccept, Role: RoleAcceptor, Txn: t7, Ballot: 257, Participants: roster,
			Votes: []VoteInfo{{Part: "pa", Vote: wire.VoteYes}, {Part: "pc", Vote: wire.VoteNo, Bal: 257}}},
	}
}

// FuzzDecodeRecord feeds arbitrary payloads to the record decoder. The
// invariants: never panic, and decode∘encode is a fixed point — whatever a
// payload decodes to re-encodes to bytes that decode to the same record and
// re-encode to the same bytes.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range fuzzSeeds() {
		r := r
		f.Add(encodeRecord(nil, &r))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(numKinds), 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if r.Kind >= numKinds || r.Role >= numRoles {
			t.Fatalf("decoded out-of-range kind %d / role %d", r.Kind, r.Role)
		}
		canon := encodeRecord(nil, &r)
		r2, err := decodeRecord(canon)
		if err != nil {
			t.Fatalf("re-decoding canonical bytes: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip changed the record:\n was %+v\n now %+v", r, r2)
		}
		if again := encodeRecord(nil, &r2); !bytes.Equal(canon, again) {
			t.Fatalf("encoding not canonical:\n first  %x\n second %x", canon, again)
		}
	})
}

// The seed list must keep covering every live kind as kinds are added.
func TestFuzzSeedsCoverEveryKind(t *testing.T) {
	seen := map[Kind]bool{}
	for _, r := range fuzzSeeds() {
		seen[r.Kind] = true
	}
	for k := Kind(0); k < numKinds; k++ {
		if !seen[k] {
			t.Errorf("no fuzz seed for kind %s", k)
		}
	}
}

// decodeRecord validates what it reads from disk: kinds and roles outside the
// declared ranges are refused, and the two shapes only an older binary wrote
// — kind 9, and a section after the votes — are refused by name.
func TestDecodeRecordRejects(t *testing.T) {
	valid := Record{LSN: 3, Kind: KCommit, Role: RoleCoord, Txn: txn(9),
		Participants: []ParticipantInfo{{ID: "p1", Proto: wire.PrA}}}
	patch := func(off int, b byte) []byte {
		p := encodeRecord(nil, &valid)
		p[off] = b
		return p
	}
	// What the retired format appended after the votes: one member, for
	// transaction ("c", 9), committed, no participants.
	members := []byte{1, 0, 0, 0, 1, 0, 0, 0, 'c', 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}
	for _, tc := range []struct {
		name    string
		payload []byte
		retired bool
		mention string
	}{
		{"retired kind 9", patch(0, 9), true, "kind 9"},
		{"retired kind 9 with members", append(patch(0, 9), members...), true, "kind 9"},
		{"trailing members section", append(encodeRecord(nil, &valid), members...), true, "after the votes"},
		{"kind past the retired one", patch(0, 10), false, "kind 10"},
		{"kind 255", patch(0, 255), false, "kind 255"},
		{"role 3", patch(1, byte(numRoles)), false, "role 3"},
		{"role 255", patch(1, 255), false, "role 255"},
	} {
		_, err := decodeRecord(tc.payload)
		if err == nil {
			t.Errorf("%s: decoded", tc.name)
			continue
		}
		if errors.Is(err, ErrRetiredFormat) != tc.retired {
			t.Errorf("%s: errors.Is(ErrRetiredFormat) = %v, want %v (%v)", tc.name, !tc.retired, tc.retired, err)
		}
		if !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.mention)
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		for r := Role(0); r < numRoles; r++ {
			p := patch(0, byte(k))
			p[1] = byte(r)
			if _, err := decodeRecord(p); err != nil {
				t.Errorf("kind %s role %s refused: %v", k, r, err)
			}
		}
	}
}

// rawFrame frames an arbitrary payload the way appendFrame frames a record.
func rawFrame(payload []byte) []byte {
	dst := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// A log file holding a retired-format frame must fail to load, by name —
// never decode to something else.
func TestFileStoreLoadRefusesRetiredFormat(t *testing.T) {
	for name, payload := range map[string][]byte{
		"kind 9": {9, 0, 1, 0, 0, 0, 0, 0, 0, 0},
		"members": append(encodeRecord(nil, &Record{Kind: KCommit, Txn: txn(1)}),
			1, 0, 0, 0, 1, 0, 0, 0, 'c', 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
	} {
		fs, err := OpenFileStore(t.TempDir() + "/site.wal")
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Append([]Record{{Kind: KInitiation, Txn: txn(1)}}); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.f.Write(rawFrame(payload)); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Load(); !errors.Is(err, ErrRetiredFormat) {
			t.Errorf("%s: Load returned %v, want ErrRetiredFormat", name, err)
		}
		if _, err := Open(fs); !errors.Is(err, ErrRetiredFormat) {
			t.Errorf("%s: Open returned %v, want ErrRetiredFormat", name, err)
		}
		fs.Close()
	}
}
