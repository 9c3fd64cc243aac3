package persist

import (
	"bytes"
	"testing"

	"joinopt/internal/vfs"
)

// FuzzJournalReplay throws arbitrary bytes at the journal decode path
// and asserts the recovery invariants:
//
//  1. replay never panics (the decoder is fully bounds-checked);
//  2. replay never admits a record whose checksum does not verify
//     (every emitted entry re-encodes to a frame that passes the CRC —
//     a corrupt-but-lucky payload cannot masquerade as a plan);
//  3. replay terminates and accounts for every byte: records consumed
//     plus tornBytes equals the input length;
//  4. replay, and replay split over three workers, give exactly the
//     single front-to-back pass's output (replaySeq).
//
// The corpus seeds cover the honest cases (valid frames, torn tails,
// flipped bits) so the fuzzer starts near the interesting boundaries.
func FuzzJournalReplay(f *testing.F) {
	// Seed: a valid three-record body.
	var body []byte
	for i := 0; i < 3; i++ {
		body = appendFrame(body, encodeEntry(testEntry(i)))
	}
	f.Add(body)
	// Seed: torn tail at several cuts.
	for _, cut := range []int{1, 7, 8, 9, len(body) / 2, len(body) - 1} {
		f.Add(append([]byte(nil), body[:cut]...))
	}
	// Seed: one flipped bit mid-payload.
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	// Seed: absurd length prefix.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add([]byte{})
	// Seed: a CRC-valid record declaring 1<<20 relations and carrying
	// none.
	f.Add(hugePermRecord())

	f.Fuzz(func(t *testing.T, data []byte) {
		want := oracleReplay(data)
		emitted, discarded, torn := replay(nil, data)
		if d := diffReplay(replayResult{emitted, discarded, torn}, want); d != "" {
			t.Fatalf("replay vs oracle: %s", d)
		}
		split, sd, st := replayOn(nil, data, fixedWorkers(3))
		if d := diffReplay(replayResult{split, sd, st}, want); d != "" {
			t.Fatalf("replay on 3 workers vs oracle: %s", d)
		}
		if discarded < 0 || torn < 0 || torn > len(data) {
			t.Fatalf("nonsense accounting: discarded=%d torn=%d len=%d", discarded, torn, len(data))
		}
		// Every admitted entry must survive a re-encode/verify cycle:
		// the only way into the cache is through a valid checksum.
		consumed := 0
		for i, e := range emitted {
			if e == nil || e.Plan == nil {
				t.Fatalf("record %d: emitted nil entry", i)
			}
			frame := appendFrame(nil, encodeEntry(e))
			consumed += len(frame)
			// The bytes at the record's position must be exactly the
			// canonical frame for the decoded entry (CRC included):
			// decode(encode(x)) == x and the wire bytes verified.
			if !bytes.Equal(data[consumed-len(frame):consumed], frame) {
				t.Fatalf("record %d: admitted frame is not canonical for its decoded entry", i)
			}
		}
		// Accounting: consumed + torn covers the whole input. (Corrupt
		// records truncate, so everything after the last good record is
		// torn by definition.)
		if consumed+torn != len(data) {
			t.Fatalf("byte accounting: consumed=%d torn=%d len=%d", consumed, torn, len(data))
		}
	})
}

// FuzzOpenRecovery drives the full Open path (header check included)
// over fuzzer-controlled journal bytes: Open must never panic, and
// must either refuse loudly (schema/magic mismatch) or recover a cache
// whose every entry round-trips bit-exactly — exactly the entries and
// counts the single front-to-back pass (replaySeq) finds.
func FuzzOpenRecovery(f *testing.F) {
	valid := appendHeader(nil, magicJournal)
	for i := 0; i < 2; i++ {
		valid = appendFrame(valid, encodeEntry(testEntry(i)))
	}
	f.Add(valid)
	f.Add(valid[:headerLen])
	f.Add(valid[:headerLen-2])
	f.Add([]byte("not a journal at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMem()
		fw, _ := fs.Create("cache/plans.journal")
		_, _ = fw.Write(data)
		_ = fw.Close()
		store, entries, stats, err := Open(Options{Dir: "cache", FS: fs})
		ok, herr := checkHeader(data, magicJournal)
		if (err != nil) != (herr != nil) {
			t.Fatalf("Open error %v, header check error %v", err, herr)
		}
		if err != nil {
			return // loud refusal is a valid outcome
		}
		want := replayResult{tornBytes: len(data)}
		if ok {
			want = oracleReplay(data[headerLen:])
		}
		got := replayResult{entries, stats.Discarded, stats.TornBytes}
		if d := diffReplay(got, want); d != "" {
			t.Fatalf("Open vs oracle: %s", d)
		}
		if stats.JournalRecords != len(want.entries) || stats.SnapshotRecords != 0 || stats.TornHeader == ok {
			t.Fatalf("stats %+v for %d oracle records, valid header %v", stats, len(want.entries), ok)
		}
		for _, e := range entries {
			got, derr := decodeEntry(encodeEntry(e))
			if derr != nil || !entriesEqual(e, got) {
				t.Fatalf("recovered entry does not round-trip bit-exactly")
			}
		}
		_ = store.Close()
	})
}
