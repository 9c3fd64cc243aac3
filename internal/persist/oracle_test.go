package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/vfs"
)

// The record encoder appendEntry replaced, kept as the oracle:
// encodeEntry renders a payload into a buffer of its own and
// appendFrame copies it behind a length and checksum. Tests that
// forge frames around hand-made payloads use appendFrame too.

// appendFrame appends one framed record (length, crc, payload) to dst.
func appendFrame(dst, payload []byte) []byte {
	var f [frameLen]byte
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, f[:]...)
	return append(dst, payload...)
}

// encodeEntry renders one cache entry as a record payload.
func encodeEntry(e *plancache.Entry) []byte {
	pl := e.Plan
	buf := make([]byte, 0, 64+16*len(pl.Components))
	buf = append(buf, e.Fingerprint[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.BudgetUsed))
	var flags byte
	if pl.Degraded {
		flags |= 1
	}
	flags |= (e.Tier & 3) << 1
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(pl.DegradeReason)))
	buf = append(buf, pl.DegradeReason...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pl.TotalCost))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pl.CrossCost))
	buf = binary.AppendUvarint(buf, uint64(len(pl.Components)))
	for _, c := range pl.Components {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Cost))
		buf = binary.AppendUvarint(buf, uint64(len(c.Perm)))
		for _, r := range c.Perm {
			buf = binary.AppendUvarint(buf, uint64(r))
		}
	}
	return buf
}

// oracleEntries covers every field of the record layout: testEntry's
// two components, a degrade reason (one long enough for a two-byte
// length), each tier, no component at all, and relation IDs and
// permutation lengths of 128 and more, whose uvarints take two bytes.
func oracleEntries() []*plancache.Entry {
	var out []*plancache.Entry
	for i := 0; i < 40; i++ {
		e := testEntry(i)
		e.Tier = uint8(i % 4)
		switch i % 5 {
		case 1:
			e.Plan.Degraded = true
			e.Plan.DegradeReason = "budget exhausted"
		case 2:
			e.Plan.Degraded = true
			e.Plan.DegradeReason = strings.Repeat("why ", 40+i)
		case 3:
			e.Plan.Components = nil
		case 4:
			long := make(plan.Perm, 130+i)
			for j := range long {
				long[j] = catalog.RelID(len(long) - j + 100*i)
			}
			e.Plan.Components = append(e.Plan.Components, plan.Result{Perm: long, Cost: math.Inf(1)})
		}
		out = append(out, e)
	}
	return out
}

// TestDifferentialRecordEncoding pins the record bytes to the oracle:
// appendEntry, EncodeSnapshot and the journal Store.Append writes all
// equal appendFrame(encodeEntry(e)), and recordLen is exact.
func TestDifferentialRecordEncoding(t *testing.T) {
	entries := oracleEntries()
	journal := appendHeader(nil, magicJournal)
	snapshot := appendHeader(nil, magicSnapshot)
	for i, e := range entries {
		want := appendFrame(nil, encodeEntry(e))
		got := appendEntry([]byte("prefix"), e)
		if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
			t.Fatalf("entry %d: appendEntry\n got %x\nwant prefix+%x", i, got, want)
		}
		if n := recordLen(e); n != len(want) {
			t.Fatalf("entry %d: recordLen %d, appendEntry wrote %d", i, n, len(want))
		}
		journal = append(journal, want...)
		snapshot = append(snapshot, want...)
	}

	// Nil entries and entries without a plan are skipped.
	withGaps := append([]*plancache.Entry{nil}, entries...)
	withGaps = append(withGaps, &plancache.Entry{})
	snap := EncodeSnapshot(withGaps)
	if !bytes.Equal(snap, snapshot) {
		t.Fatal("EncodeSnapshot differs from the oracle's frames")
	}
	if cap(snap) != len(snap) {
		t.Fatalf("EncodeSnapshot sized its buffer at %d for %d bytes", cap(snap), len(snap))
	}

	mem := vfs.NewMem()
	store, _, _, err := Open(Options{Dir: "cache", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, err := store.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("cache/plans.journal")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, journal) {
		t.Fatal("the journal Store.Append wrote differs from the oracle's frames")
	}
}
