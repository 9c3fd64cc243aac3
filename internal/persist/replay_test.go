package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"

	"joinopt/internal/parallel"
	"joinopt/internal/plancache"
)

// replaySeq is the single front-to-back replay that replay must
// reproduce: records are checksummed and decoded in order, and the
// walk stops at the first torn or corrupt one.
func replaySeq(data []byte, emit func(*plancache.Entry)) (records, discarded, tornBytes int) {
	off := 0
	for {
		rest := len(data) - off
		if rest == 0 {
			return records, discarded, 0
		}
		if rest < frameLen {
			return records, discarded, rest // torn frame header
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > MaxRecordBytes {
			return records, discarded + 1, rest
		}
		if rest < frameLen+length {
			return records, discarded, rest // torn payload
		}
		payload := data[off+frameLen : off+frameLen+length]
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return records, discarded + 1, rest
		}
		e, err := decodeEntry(payload)
		if err != nil {
			return records, discarded + 1, rest
		}
		emit(e)
		records++
		off += frameLen + length
	}
}

// replayResult is one replay's full output.
type replayResult struct {
	entries              []*plancache.Entry
	discarded, tornBytes int
}

func oracleReplay(data []byte) replayResult {
	var r replayResult
	_, r.discarded, r.tornBytes = replaySeq(data, func(e *plancache.Entry) {
		r.entries = append(r.entries, e)
	})
	return r
}

// diffReplay reports how got differs from want, or "" if it does not.
func diffReplay(got, want replayResult) string {
	if len(got.entries) != len(want.entries) || got.discarded != want.discarded || got.tornBytes != want.tornBytes {
		return fmt.Sprintf("records/discarded/torn = %d/%d/%d, oracle %d/%d/%d",
			len(got.entries), got.discarded, got.tornBytes, len(want.entries), want.discarded, want.tornBytes)
	}
	for i := range got.entries {
		if !entriesEqual(got.entries[i], want.entries[i]) {
			return fmt.Sprintf("entry %d differs from the oracle's", i)
		}
	}
	return ""
}

// fixedWorkers makes replayOn split any input over k workers.
func fixedWorkers(k int) func(int) int { return func(int) int { return k } }

// frameBody renders entries 0..n-1 as one framed record body.
func frameBody(n int) (body []byte, offs []int) {
	for i := 0; i < n; i++ {
		offs = append(offs, len(body))
		body = appendFrame(body, encodeEntry(replayEntry(i)))
	}
	return body, offs
}

// replayEntry alternates single- and two-component plans, so both
// decode layouts cross every chunk boundary.
func replayEntry(i int) *plancache.Entry {
	e := testEntry(i)
	if i%2 == 0 {
		e.Plan.Components = e.Plan.Components[:1]
	}
	return e
}

// withGOMAXPROCS runs f with GOMAXPROCS set to n, so a test splits work
// over n workers on any machine.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func TestReplayMatchesOracleOnCleanInput(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		body, _ := frameBody(n)
		want := oracleReplay(body)
		for k := 1; k <= 4; k++ {
			var got replayResult
			got.entries, got.discarded, got.tornBytes = replayOn(nil, body, fixedWorkers(k))
			if d := diffReplay(got, want); d != "" {
				t.Fatalf("n=%d workers=%d: %s", n, k, d)
			}
		}
	}
	// Both sides of parallel.MinPerWorker through replay itself, with
	// GOMAXPROCS high enough to split the larger input.
	withGOMAXPROCS(4, func() {
		for _, n := range []int{parallel.MinPerWorker - 1, 2*parallel.MinPerWorker + 3} {
			body, _ := frameBody(n)
			want := oracleReplay(body)
			var got replayResult
			got.entries, got.discarded, got.tornBytes = replay(nil, body)
			if d := diffReplay(got, want); d != "" {
				t.Fatalf("n=%d (%d workers): %s", n, parallel.Workers(n), d)
			}
		}
	})
}

// corruptions damage frame i of a body whose frames start at offs.
var corruptions = []struct {
	name  string
	apply func(body []byte, offs []int, i int) []byte
}{
	{"bad crc", func(body []byte, offs []int, i int) []byte {
		out := append([]byte(nil), body...)
		out[offs[i]+4] ^= 0x01
		return out
	}},
	{"bad payload", func(body []byte, offs []int, i int) []byte {
		// The checksum holds, but a trailing byte makes the payload
		// undecodable.
		payload := append(encodeEntry(replayEntry(i)), 0)
		out := append([]byte(nil), body[:offs[i]]...)
		out = appendFrame(out, payload)
		return append(out, body[frameEnd(body, offs, i):]...)
	}},
	{"oversized length", func(body []byte, offs []int, i int) []byte {
		out := append([]byte(nil), body...)
		binary.LittleEndian.PutUint32(out[offs[i]:], MaxRecordBytes+1)
		return out
	}},
	{"torn payload", func(body []byte, offs []int, i int) []byte {
		return append([]byte(nil), body[:(offs[i]+frameLen+frameEnd(body, offs, i))/2]...)
	}},
	{"torn frame header", func(body []byte, offs []int, i int) []byte {
		return append([]byte(nil), body[:offs[i]+frameLen/2]...)
	}},
	{"bad crc here and in the last record", func(body []byte, offs []int, i int) []byte {
		out := append([]byte(nil), body...)
		out[offs[i]+4] ^= 0x01
		out[offs[len(offs)-1]+5] ^= 0x01
		return out
	}},
}

func frameEnd(body []byte, offs []int, i int) int {
	if i+1 < len(offs) {
		return offs[i+1]
	}
	return len(body)
}

// TestReplayMatchesOracleOnCorruptInput damages one record at the
// first record, on either side of each chunk boundary and at the last
// record, and demands the oracle's output: the same valid prefix, the
// same discarded count and the same torn bytes.
func TestReplayMatchesOracleOnCorruptInput(t *testing.T) {
	check := func(t *testing.T, n int, positions []int, run func([]byte) replayResult) {
		body, offs := frameBody(n)
		for _, c := range corruptions {
			for _, i := range positions {
				data := c.apply(body, offs, i)
				want := oracleReplay(data)
				if len(want.entries) != i {
					t.Fatalf("%s at %d: oracle kept %d records, want %d", c.name, i, len(want.entries), i)
				}
				if d := diffReplay(run(data), want); d != "" {
					t.Fatalf("n=%d, %s at record %d: %s", n, c.name, i, d)
				}
			}
		}
	}
	t.Run("three workers", func(t *testing.T) {
		const n = 30 // chunks [0,10) [10,20) [20,30)
		check(t, n, []int{0, 9, 10, 19, 20, n - 1}, func(data []byte) (r replayResult) {
			r.entries, r.discarded, r.tornBytes = replayOn(nil, data, fixedWorkers(3))
			return r
		})
	})
	t.Run("replay on two CPUs", func(t *testing.T) {
		n := 2*parallel.MinPerWorker + 3
		withGOMAXPROCS(2, func() {
			if w := parallel.Workers(n); w != 2 {
				t.Fatalf("parallel.Workers(%d) = %d, want 2", n, w)
			}
			check(t, n, []int{0, n/2 - 1, n / 2, n - 1}, func(data []byte) (r replayResult) {
				r.entries, r.discarded, r.tornBytes = replay(nil, data)
				return r
			})
		})
	})
}

// TestReplayAppendsToDst pins that replay extends the slice it is given,
// as Open does with the snapshot's entries before the journal's.
func TestReplayAppendsToDst(t *testing.T) {
	body, _ := frameBody(5)
	head := []*plancache.Entry{testEntry(100)}
	out, discarded, torn := replayOn(head, body, fixedWorkers(2))
	if discarded != 0 || torn != 0 || len(out) != 6 || out[0] != head[0] {
		t.Fatalf("replay onto a 1-entry slice: len=%d discarded=%d torn=%d", len(out), discarded, torn)
	}
	for i, e := range out[1:] {
		if !entriesEqual(e, replayEntry(i)) {
			t.Fatalf("appended entry %d differs", i)
		}
	}
}

// TestDecodeEntryAllocs pins one allocation for a record's entry, plan
// and first component together, one for its permutations, and one for
// the component slice of a plan with several: checking the positions
// allocates nothing.
func TestDecodeEntryAllocs(t *testing.T) {
	for i, want := range []float64{2, 3} {
		payload := encodeEntry(replayEntry(i))
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := decodeEntry(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Fatalf("decodeEntry of a %d-component record: %v allocs, want %v", i+1, allocs, want)
		}
	}
}
