package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/vfs"
)

// testEntry fabricates a deterministic entry. The fingerprint encodes
// i; the plan's floats exercise exact-bit round-tripping (non-round
// fractions, big exponents). Its two components hold positions 0..3
// once each, the first alone 0..2, so either is a plan decode accepts.
func testEntry(i int) *plancache.Entry {
	var fp fingerprint.Fingerprint
	binary.LittleEndian.PutUint64(fp[:8], uint64(i))
	fp[31] = byte(i >> 3) // vary high bytes too
	cost := float64(i)*1.0000001e7 + 0.3
	return &plancache.Entry{
		Fingerprint: fp,
		Plan: &plan.Plan{
			Components: []plan.Result{
				{Perm: plan.Perm{catalog.RelID(i % 3), catalog.RelID((i + 1 + i%2) % 3), catalog.RelID((i + 2 - i%2) % 3)}, Cost: cost},
				{Perm: plan.Perm{3}, Cost: 1.5},
			},
			CrossCost: 2.25 * float64(i),
			TotalCost: cost + 1.5 + 2.25*float64(i),
		},
		BudgetUsed: int64(1000 + i),
	}
}

// entriesEqual compares entries bit-exactly (floats by their IEEE bit
// patterns: the byte-identical-Explain guarantee needs exact bits, not
// approximate equality).
func entriesEqual(a, b *plancache.Entry) bool {
	if a.Fingerprint != b.Fingerprint || a.BudgetUsed != b.BudgetUsed {
		return false
	}
	pa, pb := a.Plan, b.Plan
	if math.Float64bits(pa.TotalCost) != math.Float64bits(pb.TotalCost) ||
		math.Float64bits(pa.CrossCost) != math.Float64bits(pb.CrossCost) ||
		pa.Degraded != pb.Degraded || pa.DegradeReason != pb.DegradeReason ||
		len(pa.Components) != len(pb.Components) {
		return false
	}
	for i := range pa.Components {
		ca, cb := pa.Components[i], pb.Components[i]
		if math.Float64bits(ca.Cost) != math.Float64bits(cb.Cost) || len(ca.Perm) != len(cb.Perm) {
			return false
		}
		for j := range ca.Perm {
			if ca.Perm[j] != cb.Perm[j] {
				return false
			}
		}
	}
	return true
}

func openMem(t *testing.T, fs vfs.FS) (*Store, []*plancache.Entry, RecoveryStats) {
	t.Helper()
	st, entries, stats, err := Open(Options{Dir: "cache", FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st, entries, stats
}

func TestRecordRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		e := testEntry(i)
		got, err := decodeEntry(encodeEntry(e))
		if err != nil {
			t.Fatalf("decode entry %d: %v", i, err)
		}
		if !entriesEqual(e, got) {
			t.Fatalf("entry %d did not round-trip bit-exactly", i)
		}
	}
	// Degraded flag and reason round-trip too (persisted snapshots of
	// AdmitDegraded caches must keep the flag).
	e := testEntry(1)
	e.Plan.Degraded = true
	e.Plan.DegradeReason = plan.DegradeCancelled + ": test"
	got, err := decodeEntry(encodeEntry(e))
	if err != nil {
		t.Fatalf("decode degraded: %v", err)
	}
	if !got.Plan.Degraded || got.Plan.DegradeReason != e.Plan.DegradeReason {
		t.Fatalf("degraded contract lost: %+v", got.Plan)
	}
}

func TestAppendRecoverJournalOnly(t *testing.T) {
	fs := vfs.NewMem()
	st, entries, _ := openMem(t, fs)
	if len(entries) != 0 {
		t.Fatalf("fresh dir recovered %d entries", len(entries))
	}
	var want []*plancache.Entry
	for i := 0; i < 20; i++ {
		e := testEntry(i)
		want = append(want, e)
		if _, err := st.Append(e); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, got, stats := openMem(t, fs)
	if stats.JournalRecords != 20 || stats.SnapshotRecords != 0 {
		t.Fatalf("stats = %+v, want 20 journal / 0 snapshot", stats)
	}
	if len(got) != 20 {
		t.Fatalf("recovered %d entries, want 20", len(got))
	}
	for i := range got {
		if !entriesEqual(want[i], got[i]) {
			t.Fatalf("entry %d not bit-identical after recovery", i)
		}
	}
}

func TestSnapshotCompactsJournal(t *testing.T) {
	fs := vfs.NewMem()
	st, _, _ := openMem(t, fs)
	var all []*plancache.Entry
	for i := 0; i < 10; i++ {
		e := testEntry(i)
		all = append(all, e)
		if _, err := st.Append(e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := st.Snapshot(all); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Post-snapshot appends land in the fresh journal.
	late := testEntry(99)
	if since, err := st.Append(late); err != nil || since != 1 {
		t.Fatalf("append after snapshot: since=%d err=%v", since, err)
	}

	_, got, stats := openMem(t, fs)
	if stats.SnapshotRecords != 10 || stats.JournalRecords != 1 {
		t.Fatalf("stats = %+v, want 10 snapshot / 1 journal", stats)
	}
	if len(got) != 11 || !entriesEqual(got[10], late) {
		t.Fatalf("recovered %d entries; journal record must replay after snapshot", len(got))
	}
	if fs.HasPrefixFile("cache/plans.snap.tmp") || fs.HasPrefixFile("cache/plans.journal.tmp") {
		t.Fatalf("temp files leaked: %v", fs.Names())
	}
}

func TestTornTailTruncated(t *testing.T) {
	for cut := 1; cut < 40; cut += 3 {
		fs := vfs.NewMem()
		st, _, _ := openMem(t, fs)
		for i := 0; i < 5; i++ {
			if _, err := st.Append(testEntry(i)); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		data, err := fs.ReadFile("cache/plans.journal")
		if err != nil {
			t.Fatal(err)
		}
		// Cut the last `cut` bytes off the journal: a torn final write.
		if err := fs.Truncate("cache/plans.journal", len(data)-cut); err != nil {
			t.Fatal(err)
		}
		_, got, stats := openMem(t, fs)
		if len(got) >= 5 {
			t.Fatalf("cut=%d: torn tail not truncated (recovered %d)", cut, len(got))
		}
		if stats.TornBytes == 0 {
			t.Fatalf("cut=%d: torn bytes not counted: %+v", cut, stats)
		}
		// The surviving records must be the exact prefix.
		for i, e := range got {
			if !entriesEqual(testEntry(i), e) {
				t.Fatalf("cut=%d: recovered entry %d is not history prefix", cut, i)
			}
		}
	}
}

func TestCorruptRecordTruncatesAtFirstBadChecksum(t *testing.T) {
	fs := vfs.NewMem()
	st, _, _ := openMem(t, fs)
	for i := 0; i < 8; i++ {
		if _, err := st.Append(testEntry(i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	data, _ := fs.ReadFile("cache/plans.journal")
	recLen := (len(data) - headerLen) / 8
	// Flip a bit inside record 3's payload.
	off := headerLen + 3*recLen + frameLen + 5
	if err := fs.Corrupt("cache/plans.journal", off); err != nil {
		t.Fatal(err)
	}

	_, got, stats := openMem(t, fs)
	if len(got) != 3 {
		t.Fatalf("recovered %d entries, want exactly the 3 before the corrupt record", len(got))
	}
	if stats.Discarded != 1 {
		t.Fatalf("discarded = %d, want 1", stats.Discarded)
	}
	for i, e := range got {
		if !entriesEqual(testEntry(i), e) {
			t.Fatalf("recovered entry %d corrupted", i)
		}
	}
}

// TestDecodeRefusesPositionsOutsideThePlan: a record whose components
// do not hold each position 0..n−1 exactly once is corrupt, however
// well framed; one that does decodes whatever the split.
func TestDecodeRefusesPositionsOutsideThePlan(t *testing.T) {
	withPerms := func(perms ...plan.Perm) *plancache.Entry {
		e := testEntry(1)
		e.Plan.Components = nil
		for _, p := range perms {
			e.Plan.Components = append(e.Plan.Components, plan.Result{Perm: p, Cost: 1})
		}
		return e
	}
	for _, c := range []struct {
		name string
		e    *plancache.Entry
		ok   bool
	}{
		{"position past the shape", withPerms(plan.Perm{0, 99}), false},
		{"repeated position", withPerms(plan.Perm{1, 1}), false},
		{"position in two components", withPerms(plan.Perm{0, 1}, plan.Perm{1}), false},
		{"missing position", withPerms(plan.Perm{0, 2}, plan.Perm{3}), false},
		{"huge position", withPerms(plan.Perm{0, 1 << 31}), false},
		{"one component", withPerms(plan.Perm{2, 0, 1}), true},
		{"split over components", withPerms(plan.Perm{3, 1}, plan.Perm{0}, plan.Perm{2}), true},
		{"two-byte positions", withPerms(reversed(300)), true},
		{"no component", withPerms(), true},
	} {
		got, err := decodeEntry(encodeEntry(c.e))
		if !c.ok {
			if !errors.Is(err, errCorrupt) {
				t.Errorf("%s: decode err %v, want errCorrupt", c.name, err)
			}
			continue
		}
		if err != nil || !entriesEqual(got, c.e) {
			t.Errorf("%s: decode err %v, entry equal %v", c.name, err, err == nil && entriesEqual(got, c.e))
		}
	}
}

// reversed returns the permutation n−1, ..., 0.
func reversed(n int) plan.Perm {
	p := make(plan.Perm, n)
	for i := range p {
		p[i] = catalog.RelID(n - 1 - i)
	}
	return p
}

// TestRecoveryDiscardsPositionsOutsideThePlan: recovery treats a record
// naming a position outside its plan like any corrupt record, keeping
// the records before it and truncating the rest.
func TestRecoveryDiscardsPositionsOutsideThePlan(t *testing.T) {
	fs := vfs.NewMem()
	st, _, _ := openMem(t, fs)
	bad := testEntry(2)
	bad.Plan.Components = []plan.Result{{Perm: plan.Perm{0, 99}, Cost: 1}}
	for _, e := range []*plancache.Entry{testEntry(0), testEntry(1), bad, testEntry(3)} {
		if _, err := st.Append(e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	_, got, stats := openMem(t, fs)
	if len(got) != 2 || stats.Discarded != 1 {
		t.Fatalf("recovered %d entries, discarded %d; want the 2 before the bad record, 1 discarded", len(got), stats.Discarded)
	}
	for i, e := range got {
		if !entriesEqual(testEntry(i), e) {
			t.Fatalf("recovered entry %d differs", i)
		}
	}
}

func TestSchemaMismatchRefusedLoudly(t *testing.T) {
	fs := vfs.NewMem()
	st, _, _ := openMem(t, fs)
	if _, err := st.Append(testEntry(1)); err != nil {
		t.Fatal(err)
	}
	// Forge a future schema version into the journal header and fix up
	// its CRC so only the version check can object.
	data, _ := fs.ReadFile("cache/plans.journal")
	data[5] = fingerprint.SchemaVersion + 1
	forged := make([]byte, len(data))
	copy(forged, data)
	h := encodeHeaderForged(forged[:headerLen])
	copy(forged[:headerLen], h)
	f, _ := fs.Create("cache/plans.journal")
	if _, err := f.Write(forged); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	_, _, _, err := Open(Options{Dir: "cache", FS: fs})
	if !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("Open = %v, want ErrSchemaMismatch", err)
	}
}

// encodeHeaderForged recomputes the CRC over a (tampered) header.
func encodeHeaderForged(h []byte) []byte {
	out := make([]byte, headerLen)
	copy(out, h[:8])
	binary.LittleEndian.PutUint32(out[8:12], crcChecksum(out[:8]))
	return out
}

func crcChecksum(b []byte) uint32 {
	return crc32.Checksum(b, crcTable)
}

func TestForeignFileRefused(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("cache/plans.journal")
	if _, err := f.Write([]byte("#!/bin/sh\necho not a journal\n")); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	_ = fs.MkdirAll("cache")
	_, _, _, err := Open(Options{Dir: "cache", FS: fs})
	if err == nil {
		t.Fatal("Open accepted a foreign file as a journal")
	}
}

func TestTornHeaderTreatedAsEmpty(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("cache/plans.journal")
	if _, err := f.Write(appendHeader(nil, magicJournal)[:5]); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	_ = fs.MkdirAll("cache")
	_, got, stats := openMem(t, fs)
	if len(got) != 0 || !stats.TornHeader {
		t.Fatalf("torn header: entries=%d stats=%+v", len(got), stats)
	}
}

func TestManagerJournalsAdmissionsAndCompacts(t *testing.T) {
	fs := vfs.NewMem()
	st, entries, rstats := openMem(t, fs)
	cache := plancache.New(plancache.Config{Capacity: 1024})
	mgr := NewManager(st, cache, 4) // compact every 4 appends
	if n := mgr.Recover(entries, rstats); n != 0 {
		t.Fatalf("recovered %d from empty store", n)
	}
	mgr.Bind()

	for i := 0; i < 10; i++ {
		if !cache.Put(testEntry(i)) {
			t.Fatalf("put %d refused", i)
		}
	}
	ms := mgr.Stats()
	if ms.Appends != 10 {
		t.Fatalf("appends = %d, want 10", ms.Appends)
	}
	if ms.Snapshots < 2 {
		t.Fatalf("snapshots = %d, want ≥ 2 (compact every 4)", ms.Snapshots)
	}

	// A degraded plan is refused by the cache, so it must never reach
	// the journal.
	bad := testEntry(50)
	bad.Plan.Degraded = true
	bad.Plan.DegradeReason = plan.DegradePanic
	if cache.Put(bad) {
		t.Fatal("degraded plan admitted")
	}
	if got := mgr.Stats().Appends; got != 10 {
		t.Fatalf("degraded plan was journaled (appends=%d)", got)
	}

	// Restart: a second store over the same filesystem recovers all 10.
	st2, entries2, rstats2 := openMem(t, fs)
	cache2 := plancache.New(plancache.Config{Capacity: 1024})
	mgr2 := NewManager(st2, cache2, 4)
	if n := mgr2.Recover(entries2, rstats2); n != 10 {
		t.Fatalf("recovered %d entries, want 10", n)
	}
	if cache2.Stats().Warmed != 10 {
		t.Fatalf("warmed = %d, want 10", cache2.Stats().Warmed)
	}
	for i := 0; i < 10; i++ {
		got, ok := cache2.Get(testEntry(i).Fingerprint)
		if !ok || !entriesEqual(testEntry(i), got) {
			t.Fatalf("entry %d missing or not bit-identical after restart", i)
		}
	}
}

func TestRecoveryJournalSupersedesSnapshotPerKey(t *testing.T) {
	fs := vfs.NewMem()
	st, _, _ := openMem(t, fs)
	oldE := testEntry(1)
	if err := st.Snapshot([]*plancache.Entry{oldE}); err != nil {
		t.Fatal(err)
	}
	// Same fingerprint, more search budget, different plan cost.
	newE := testEntry(1)
	newE.BudgetUsed = oldE.BudgetUsed + 500
	newE.Plan.TotalCost = 123.456
	if _, err := st.Append(newE); err != nil {
		t.Fatal(err)
	}

	st2, entries, rstats := openMem(t, fs)
	_ = st2
	cache := plancache.New(plancache.Config{Capacity: 16})
	NewManager(st2, cache, 0).Recover(entries, rstats)
	got, ok := cache.Get(newE.Fingerprint)
	if !ok {
		t.Fatal("entry missing")
	}
	if math.Float64bits(got.Plan.TotalCost) != math.Float64bits(newE.Plan.TotalCost) {
		t.Fatalf("journal record did not supersede snapshot: cost %v", got.Plan.TotalCost)
	}
	if got.BudgetUsed != newE.BudgetUsed {
		t.Fatalf("budget weight %d, want %d", got.BudgetUsed, newE.BudgetUsed)
	}
}

// closeFailFS wraps a vfs.FS and makes Close fail on handles opened
// via Append while armed — the seam FaultFS lacks (it treats Close as
// non-mutating). POSIX close(2) can surface deferred write-back
// errors, which is exactly what resetJournalLocked must not swallow.
type closeFailFS struct {
	vfs.FS
	armed bool
	err   error
}

func (f *closeFailFS) Append(name string) (vfs.File, error) {
	inner, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &closeFailFile{File: inner, fs: f}, nil
}

type closeFailFile struct {
	vfs.File
	fs *closeFailFS
}

func (w *closeFailFile) Close() error {
	err := w.File.Close()
	if w.fs.armed {
		return w.fs.err
	}
	return err
}

// TestCompactionSurfacesJournalCloseError is the regression test for
// the errsink finding in resetJournalLocked: the old journal handle's
// Close error was discarded, so a failed close — which can mean
// buffered journal bytes never reached the disk — looked like a clean
// compaction. The error must surface so the manager counts the
// failure and the caller can retry.
func TestCompactionSurfacesJournalCloseError(t *testing.T) {
	boom := errors.New("deferred write-back failed")
	ffs := &closeFailFS{FS: vfs.NewMem(), err: boom}
	st, _, _ := openMem(t, ffs)
	if _, err := st.Append(testEntry(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}

	ffs.armed = true
	err := st.Snapshot([]*plancache.Entry{testEntry(1)})
	if err == nil {
		t.Fatal("Snapshot succeeded despite the old journal's Close failing")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected close error wrapped", err)
	}

	// The failed handle is released either way (journal == nil), so a
	// retry must not double-close; once the fault clears, compaction
	// succeeds and appends flow again.
	ffs.armed = false
	if err := st.Snapshot([]*plancache.Entry{testEntry(1)}); err != nil {
		t.Fatalf("retry after close failure: %v", err)
	}
	if _, err := st.Append(testEntry(2)); err != nil {
		t.Fatalf("Append after recovered compaction: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
