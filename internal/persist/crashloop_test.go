package persist

import (
	"encoding/binary"
	"errors"
	"sort"
	"testing"

	"joinopt/internal/faultinject"
	"joinopt/internal/plancache"
	"joinopt/internal/vfs"
)

// The crash-loop harness: replay a fixed write history against the
// store, kill the filesystem at every mutating-operation index, reboot
// (recover over the surviving bytes), and assert the recovered state
// is always a bit-identical prefix of the history — and at least as
// long as the durable prefix (every Append that returned nil under the
// default fsync-per-append contract).
//
// This is the acceptance criterion from the durability design: no
// crash point may yield an out-of-order, corrupted, or
// beyond-the-history cache, and no acknowledged write may be lost.

// crashHistoryEntries and crashSnapshotEvery shape the write history:
// 80 appends with a compacting snapshot every 16 gives a history of
// well over 200 mutating operations (each append is write+sync; each
// snapshot is ~11 ops; Open itself compacts).
const (
	crashHistoryEntries = 80
	crashSnapshotEvery  = 16
)

// cleanRestartAt is where the clean-directory history restarts: after
// entry 23 it flushes, closes and reopens, as a graceful redeploy does.
const cleanRestartAt = 24

// runHistory drives the fixed history against a store opened over fs.
// With restartAt > 0, the store is flushed, closed and reopened over
// the clean directory before entry restartAt is appended. It returns
// the index of the last entry whose Append returned nil (-1 if none) —
// the durable lower bound for recovery. Errors from the injected crash
// are expected and swallowed; the history simply stops acknowledging
// from the crash point on.
func runHistory(fs vfs.FS, restartAt int) (lastDurable int) {
	lastDurable = -1
	store, _, _, err := Open(Options{Dir: "cache", FS: fs})
	if err != nil {
		return -1 // crashed during Open: nothing acknowledged
	}
	defer func() {
		if store != nil { // nil when the reopen crashed
			_ = store.Close()
		}
	}()
	all := make([]*plancache.Entry, 0, crashHistoryEntries)
	for i := 0; i < crashHistoryEntries; i++ {
		if restartAt > 0 && i == restartAt {
			if err := store.Snapshot(all); err != nil {
				return lastDurable
			}
			if err := store.Close(); err != nil {
				return lastDurable
			}
			if store, _, _, err = Open(Options{Dir: "cache", FS: fs}); err != nil {
				return lastDurable
			}
		}
		e := testEntry(i)
		all = append(all, e)
		if _, err := store.Append(e); err != nil {
			// Crash (or post-crash ErrClosed): nothing past this point
			// is acknowledged.
			return lastDurable
		}
		lastDurable = i
		if (i+1)%crashSnapshotEvery == 0 {
			// Compacting snapshot of everything appended so far. A
			// failure here must not lose acknowledged entries — that is
			// exactly what the reboot assertion checks.
			if err := store.Snapshot(all); err != nil {
				return lastDurable
			}
		}
	}
	return lastDurable
}

// recoverAll reboots over the raw filesystem (no faults: recovery runs
// after the power is back) and returns the deduplicated recovered
// entries, journal-wins order, keyed by history index.
func recoverAll(t *testing.T, fs vfs.FS) map[int]*plancache.Entry {
	t.Helper()
	store, entries, _, err := Open(Options{Dir: "cache", FS: fs})
	if err != nil {
		t.Fatalf("recovery Open after crash: %v", err)
	}
	defer store.Close()
	got := make(map[int]*plancache.Entry)
	for _, e := range entries {
		idx := int(binary.LittleEndian.Uint64(e.Fingerprint[:8]))
		got[idx] = e // replay order: later (journal) records supersede
	}
	return got
}

// assertPrefix checks that got is exactly {0..k} for some k, every
// entry bit-identical to the history, and k >= lastDurable.
func assertPrefix(t *testing.T, got map[int]*plancache.Entry, lastDurable int, crashOp int64) {
	t.Helper()
	indices := make([]int, 0, len(got))
	for idx := range got {
		indices = append(indices, idx)
	}
	sort.Ints(indices)
	for pos, idx := range indices {
		if idx != pos {
			t.Fatalf("crash at op %d: recovered indices %v are not a contiguous prefix", crashOp, indices)
		}
		if !entriesEqual(got[idx], testEntry(idx)) {
			t.Fatalf("crash at op %d: recovered entry %d is not bit-identical to the written one", crashOp, idx)
		}
	}
	k := len(indices) - 1
	if k < lastDurable {
		t.Fatalf("crash at op %d: recovered prefix ends at %d but append %d was acknowledged durable", crashOp, k, lastDurable)
	}
}

// TestCrashLoopEveryOpIndex is the exhaustive kill-and-recover loop:
// one run per mutating-operation index of the clean history.
func TestCrashLoopEveryOpIndex(t *testing.T) {
	// Clean run: measure the history length in mutating ops.
	cleanMem := vfs.NewMem()
	counter := faultinject.NewFaultFS(cleanMem, faultinject.FSConfig{})
	if last := runHistory(counter, 0); last != crashHistoryEntries-1 {
		t.Fatalf("clean run acknowledged %d entries, want %d", last+1, crashHistoryEntries)
	}
	totalOps := counter.Ops()
	if totalOps < 200 {
		t.Fatalf("history is %d mutating ops, want >= 200 (grow crashHistoryEntries)", totalOps)
	}
	t.Logf("history: %d entries, %d mutating ops, snapshot every %d", crashHistoryEntries, totalOps, crashSnapshotEvery)
	crashEveryOp(t, totalOps, 0)
}

// crashEveryOp crashes the history at each mutating-operation index in
// turn, reboots, and asserts the recovered prefix.
func crashEveryOp(t *testing.T, totalOps int64, restartAt int) {
	t.Helper()
	for crashOp := int64(1); crashOp <= totalOps; crashOp++ {
		mem := vfs.NewMem()
		ffs := faultinject.NewFaultFS(mem, faultinject.FSConfig{
			Seed:      crashOp, // distinct torn-write fractions per point
			CrashAtOp: crashOp,
		})
		lastDurable := runHistory(ffs, restartAt)
		if !ffs.Crashed() {
			t.Fatalf("crash at op %d never fired (history only %d ops this run)", crashOp, ffs.Ops())
		}
		// Reboot: recover over the raw surviving bytes, no faults.
		got := recoverAll(t, mem)
		assertPrefix(t, got, lastDurable, crashOp)
	}
}

// TestCrashLoopFromCleanDirectory runs the crash loop over a history
// that flushes, closes and reopens the clean directory partway (the
// reopen writes nothing), so a crash lands at every operation before,
// during and after the reopen. Every acknowledged append — those after
// the clean reopen included — must survive.
func TestCrashLoopFromCleanDirectory(t *testing.T) {
	plain := faultinject.NewFaultFS(vfs.NewMem(), faultinject.FSConfig{})
	runHistory(plain, 0)
	counter := faultinject.NewFaultFS(vfs.NewMem(), faultinject.FSConfig{})
	if last := runHistory(counter, cleanRestartAt); last != crashHistoryEntries-1 {
		t.Fatalf("clean run acknowledged %d entries, want %d", last+1, crashHistoryEntries)
	}
	// The restart adds one flush (11 operations) and one clean Open (4);
	// a compacting Open would add 13.
	if got, want := counter.Ops(), plain.Ops()+11+4; got != want {
		t.Fatalf("history with a clean restart is %d ops, want %d", got, want)
	}
	crashEveryOp(t, counter.Ops(), cleanRestartAt)
}

// TestCrashLoopNoSyncStillPrefix re-runs a sampled crash loop with
// per-append fsync disabled: acknowledged appends may be lost (weaker
// durability is the documented trade), but recovery must still yield a
// valid bit-identical prefix — never garbage, never reordering.
func TestCrashLoopNoSyncStillPrefix(t *testing.T) {
	run := func(fs vfs.FS) {
		store, _, _, err := Open(Options{Dir: "cache", FS: fs, NoSyncEveryAppend: true})
		if err != nil {
			return
		}
		defer store.Close()
		var all []*plancache.Entry
		for i := 0; i < crashHistoryEntries; i++ {
			e := testEntry(i)
			all = append(all, e)
			if _, err := store.Append(e); err != nil {
				return
			}
			if (i+1)%crashSnapshotEvery == 0 {
				if err := store.Snapshot(all); err != nil {
					return
				}
			}
		}
	}
	for crashOp := int64(1); crashOp <= 160; crashOp += 3 {
		mem := vfs.NewMem()
		ffs := faultinject.NewFaultFS(mem, faultinject.FSConfig{Seed: 7 * crashOp, CrashAtOp: crashOp})
		run(ffs)
		got := recoverAll(t, mem)
		// No durability lower bound without fsync; prefix shape and
		// bit-identity still must hold.
		assertPrefix(t, got, -1, crashOp)
	}
}

// TestCrashLoopThroughManager runs the crash loop through the full
// stack — plancache.Cache admissions firing the Manager's journal hook
// with periodic compaction — and asserts the same prefix property on
// what a rebooted Manager warms into a fresh cache.
func TestCrashLoopThroughManager(t *testing.T) {
	const entries = 60
	const compactEvery = 8

	// Clean run to size the op history.
	runMgr := func(fs vfs.FS) (acked int) {
		store, rec, rstats, err := Open(Options{Dir: "cache", FS: fs})
		if err != nil {
			return 0
		}
		cache := plancache.New(plancache.Config{Capacity: 4 * entries})
		mgr := NewManager(store, cache, compactEvery)
		mgr.Recover(rec, rstats)
		mgr.Bind()
		for i := 0; i < entries; i++ {
			cache.Put(testEntry(i))
			// The admission hook swallows append errors by design (the
			// plan is live in memory); the durable lower bound is the
			// append-error counter.
			if mgr.Stats().AppendErrors == 0 {
				acked = i + 1
			}
		}
		_ = mgr.Close()
		return acked
	}

	cleanMem := vfs.NewMem()
	counter := faultinject.NewFaultFS(cleanMem, faultinject.FSConfig{})
	if acked := runMgr(counter); acked != entries {
		t.Fatalf("clean manager run acked %d, want %d", acked, entries)
	}
	totalOps := counter.Ops()
	if totalOps < 200 {
		t.Fatalf("manager history is %d ops, want >= 200", totalOps)
	}

	for crashOp := int64(1); crashOp <= totalOps; crashOp++ {
		mem := vfs.NewMem()
		ffs := faultinject.NewFaultFS(mem, faultinject.FSConfig{Seed: crashOp, CrashAtOp: crashOp})
		acked := runMgr(ffs)

		// Reboot the full stack over the raw filesystem.
		store, rec, rstats, err := Open(Options{Dir: "cache", FS: mem})
		if err != nil {
			t.Fatalf("crash at op %d: manager recovery failed: %v", crashOp, err)
		}
		cache := plancache.New(plancache.Config{Capacity: 4 * entries})
		mgr := NewManager(store, cache, compactEvery)
		// Warm counts every replayed record (journal duplicates of
		// snapshot keys re-warm and supersede); the cache ends with
		// exactly the distinct recovered set.
		warmed := mgr.Recover(rec, rstats)
		if warmed < rstats.Recovered {
			t.Fatalf("crash at op %d: warmed %d < %d recovered entries", crashOp, warmed, rstats.Recovered)
		}
		if cache.Len() != rstats.Recovered {
			t.Fatalf("crash at op %d: cache holds %d entries, recovery reported %d distinct", crashOp, cache.Len(), rstats.Recovered)
		}
		got := make(map[int]*plancache.Entry, warmed)
		for _, e := range cache.Dump() {
			got[int(binary.LittleEndian.Uint64(e.Fingerprint[:8]))] = e
		}
		assertPrefix(t, got, acked-1, crashOp)
		_ = store.Close()
	}
}

// TestInjectedAppendErrorIsCountedNotFatal pins the degraded-not-dead
// contract: a transient injected I/O error on one append must not
// poison the store — the next append succeeds and recovery still
// yields every durable record.
func TestInjectedAppendErrorIsCountedNotFatal(t *testing.T) {
	mem := vfs.NewMem()
	// Fail one append write somewhere mid-history. Open costs a fixed
	// preamble of ops; pick an op index comfortably inside the appends.
	ffs := faultinject.NewFaultFS(mem, faultinject.FSConfig{Seed: 3, ErrAtOp: 30})
	store, _, _, err := Open(Options{Dir: "cache", FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	failures := 0
	for i := 0; i < 20; i++ {
		if _, err := store.Append(testEntry(i)); err != nil {
			if !errors.Is(err, faultinject.ErrInjectedIO) {
				t.Fatalf("append %d: unexpected error %v", i, err)
			}
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("injected exactly one fault, observed %d append failures", failures)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := recoverAll(t, mem)
	// 19 of 20 entries recovered; the lost one is the faulted append.
	if len(got) != 19 {
		t.Fatalf("recovered %d entries, want 19 (one append faulted)", len(got))
	}
	for idx, e := range got {
		if !entriesEqual(e, testEntry(idx)) {
			t.Fatalf("recovered entry %d not bit-identical", idx)
		}
	}
}
