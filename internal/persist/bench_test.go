package persist

import (
	"fmt"
	"testing"

	"joinopt/internal/plancache"
	"joinopt/internal/vfs"
)

// BenchmarkRecovery measures startup recovery (Open) as a function of
// the recovered entry count, in two directory states:
//
//   - entries=N: a snapshot holding half the entries and a journal
//     holding the rest, which Open replays and then compacts;
//   - clean/entries=N: what a graceful shutdown leaves, a snapshot of
//     every entry and an empty journal, which Open replays and reopens
//     without writing.
//
// This is the number that bounds how long a restarting ljqd takes to
// open its listener — the recovery-time figure recorded in
// BENCH_persist.json.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{128, 1024, 8192} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			benchmarkRecovery(b, n, n/2)
		})
	}
	for _, n := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("clean/entries=%d", n), func(b *testing.B) {
			benchmarkRecovery(b, n, n)
		})
	}
}

// benchmarkRecovery recovers a directory whose snapshot holds entries
// 0..snapshotted-1 and whose journal holds the rest of 0..n-1.
func benchmarkRecovery(b *testing.B, n, snapshotted int) {
	mem := vfs.NewMem()
	store, _, _, err := Open(Options{Dir: "cache", FS: mem, NoSyncEveryAppend: true})
	if err != nil {
		b.Fatal(err)
	}
	snap := make([]*plancache.Entry, 0, snapshotted)
	for i := 0; i < snapshotted; i++ {
		snap = append(snap, testEntry(i))
	}
	if err := store.Snapshot(snap); err != nil {
		b.Fatal(err)
	}
	for i := snapshotted; i < n; i++ {
		if _, err := store.Append(testEntry(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}

	// Freeze the directory bytes so each iteration recovers the same
	// state (a compacting Open would otherwise fold the journal into
	// the snapshot after the first iteration).
	frozenSnap, _ := mem.ReadFile("cache/plans.snap")
	frozenJournal, _ := mem.ReadFile("cache/plans.journal")
	restore := func() vfs.FS {
		m := vfs.NewMem()
		w, _ := m.Create("cache/plans.snap")
		_, _ = w.Write(frozenSnap)
		_ = w.Close()
		w, _ = m.Create("cache/plans.journal")
		_, _ = w.Write(frozenJournal)
		_ = w.Close()
		return m
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs := restore()
		b.StartTimer()
		st, _, stats, err := Open(Options{Dir: "cache", FS: fs, NoSyncEveryAppend: true})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Recovered != n {
			b.Fatalf("recovered %d, want %d", stats.Recovered, n)
		}
		_ = st.Close()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkAppend measures the journal append hot path, with and
// without the per-record fsync (on vfs.Mem the sync is a no-op, so
// this isolates the framing + checksum cost).
func BenchmarkAppend(b *testing.B) {
	for _, nosync := range []bool{false, true} {
		b.Run(fmt.Sprintf("nosync=%v", nosync), func(b *testing.B) {
			store, _, _, err := Open(Options{Dir: "cache", FS: vfs.NewMem(), NoSyncEveryAppend: nosync})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			e := testEntry(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Append(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeSnapshot renders a 4096-entry snapshot, the bytes
// Store.Snapshot writes and GET /snapshot ships: one buffer, sized
// exactly by recordLen before any record is written.
func BenchmarkEncodeSnapshot(b *testing.B) {
	entries := make([]*plancache.Entry, 4096)
	for i := range entries {
		entries[i] = testEntry(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBytes = EncodeSnapshot(entries)
	}
	b.SetBytes(int64(len(benchBytes)))
}

var benchBytes []byte
