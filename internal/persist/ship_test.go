package persist

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"joinopt/internal/fingerprint"
	"joinopt/internal/plancache"
	"joinopt/internal/vfs"
)

func TestShipSnapshotRoundTrip(t *testing.T) {
	var want []*plancache.Entry
	for i := 0; i < 16; i++ {
		want = append(want, testEntry(i))
	}
	// Nil entries and plan-less entries are skipped, like the disk writer.
	in := append([]*plancache.Entry{nil, {Fingerprint: want[0].Fingerprint}}, want...)
	data := EncodeSnapshot(in)

	got, err := DecodeSnapshotStrict(data)
	if err != nil {
		t.Fatalf("DecodeSnapshotStrict: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !entriesEqual(want[i], got[i]) {
			t.Fatalf("entry %d did not round-trip bit-exactly", i)
		}
	}
}

func TestShipSnapshotEmpty(t *testing.T) {
	data := EncodeSnapshot(nil)
	got, err := DecodeSnapshotStrict(data)
	if err != nil {
		t.Fatalf("empty snapshot: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d entries from empty snapshot", len(got))
	}
}

// TestShipSnapshotWireMatchesDisk pins the interchange guarantee: the
// /snapshot wire payload and the on-disk plans.snap file are the same
// bytes, so either side of the protocol can be fed from either source.
func TestShipSnapshotWireMatchesDisk(t *testing.T) {
	var entries []*plancache.Entry
	for i := 0; i < 5; i++ {
		entries = append(entries, testEntry(i))
	}
	wire := EncodeSnapshot(entries)

	fs := vfs.NewMem()
	st, _, _ := openMem(t, fs)
	if err := st.Snapshot(entries); err != nil {
		t.Fatalf("disk snapshot: %v", err)
	}
	disk, err := fs.ReadFile("cache/plans.snap")
	if err != nil {
		t.Fatal(err)
	}
	if string(wire) != string(disk) {
		t.Fatalf("wire snapshot (%d bytes) differs from disk snapshot (%d bytes)", len(wire), len(disk))
	}
}

// TestShipTruncatedStreamRefused cuts the stream at every interesting
// boundary — inside the header, at a frame edge, mid-payload, and one
// byte short of complete — and demands strict refusal each time. Disk
// recovery salvages prefixes; the wire must not.
func TestShipTruncatedStreamRefused(t *testing.T) {
	var entries []*plancache.Entry
	for i := 0; i < 6; i++ {
		entries = append(entries, testEntry(i))
	}
	data := EncodeSnapshot(entries)
	cuts := []int{0, 1, headerLen - 1, headerLen + 1, headerLen + 7,
		len(data) / 3, len(data) / 2, len(data) - 1}
	for _, cut := range cuts {
		got, err := DecodeSnapshotStrict(data[:cut])
		if err == nil {
			t.Fatalf("cut=%d: truncated snapshot accepted (%d entries)", cut, len(got))
		}
		// Past the header the failure must be the truncation sentinel
		// (callers branch on it to pick the next donor).
		if cut >= headerLen && !errors.Is(err, ErrTruncatedSnapshot) {
			t.Fatalf("cut=%d: err = %v, want ErrTruncatedSnapshot", cut, err)
		}
	}
}

func TestShipCorruptPayloadRefused(t *testing.T) {
	data := EncodeSnapshot([]*plancache.Entry{testEntry(1), testEntry(2), testEntry(3)})
	// Flip a bit inside the middle record's payload: CRC must catch it
	// and strict decode must refuse everything, including the valid
	// first record.
	recLen := (len(data) - headerLen) / 3
	mut := make([]byte, len(data))
	copy(mut, data)
	mut[headerLen+recLen+frameLen+4] ^= 0x40

	got, err := DecodeSnapshotStrict(mut)
	if !errors.Is(err, ErrTruncatedSnapshot) {
		t.Fatalf("corrupt payload: err = %v (entries=%d), want ErrTruncatedSnapshot", err, len(got))
	}
}

func TestShipTrailingGarbageRefused(t *testing.T) {
	data := EncodeSnapshot([]*plancache.Entry{testEntry(4)})
	data = append(data, 0xde, 0xad, 0xbe) // torn partial frame at the tail
	if _, err := DecodeSnapshotStrict(data); !errors.Is(err, ErrTruncatedSnapshot) {
		t.Fatalf("trailing garbage: err = %v, want ErrTruncatedSnapshot", err)
	}
}

func TestShipSchemaMismatchRefused(t *testing.T) {
	data := EncodeSnapshot([]*plancache.Entry{testEntry(1)})
	forged := make([]byte, len(data))
	copy(forged, data)
	forged[5] = fingerprint.SchemaVersion + 1
	copy(forged[:headerLen], encodeHeaderForged(forged[:headerLen]))

	if _, err := DecodeSnapshotStrict(forged); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("schema mismatch: err = %v, want ErrSchemaMismatch", err)
	}
}

func TestShipForeignMagicRefused(t *testing.T) {
	// A journal file is a valid persist container but the wrong kind:
	// shipping must not accept it as a snapshot.
	data := appendHeader(nil, magicJournal)
	data = appendFrame(data, encodeEntry(testEntry(1)))
	if _, err := DecodeSnapshotStrict(data); err == nil {
		t.Fatal("journal container accepted as shipped snapshot")
	}
	if _, err := DecodeSnapshotStrict([]byte("HTTP/1.1 502 Bad Gateway\r\n\r\n")); err == nil {
		t.Fatal("arbitrary bytes accepted as shipped snapshot")
	}
}

// hugePermRecord is one CRC-valid framed record whose single component
// declares maxPermLen relations and carries none.
func hugePermRecord() []byte {
	p := make([]byte, fingerprint.Size)        // fingerprint
	p = binary.LittleEndian.AppendUint64(p, 1) // budgetUsed
	p = append(p, 0)                           // flags
	p = binary.AppendUvarint(p, 0)             // empty reason
	p = binary.LittleEndian.AppendUint64(p, 0) // totalCost
	p = binary.LittleEndian.AppendUint64(p, 0) // crossCost
	p = binary.AppendUvarint(p, 1)             // one component
	p = binary.LittleEndian.AppendUint64(p, 0) // its cost
	p = binary.AppendUvarint(p, maxPermLen)    // its length, and nothing after
	return appendFrame(nil, p)
}

// TestShipHugePermLengthRefusedWithoutAllocating pins that a 90-byte
// shipped snapshot cannot make the decoder allocate for a million
// relations: a length longer than the bytes left in the record is
// refused before anything is allocated for it.
func TestShipHugePermLengthRefusedWithoutAllocating(t *testing.T) {
	data := append(appendHeader(nil, magicSnapshot), hugePermRecord()...)
	if len(data) != 90 {
		t.Fatalf("payload is %d bytes, want 90", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeSnapshotStrict(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncatedSnapshot) {
		t.Fatalf("err = %v, want ErrTruncatedSnapshot", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("decoding 90 bytes allocated %d bytes", grew)
	}
}
