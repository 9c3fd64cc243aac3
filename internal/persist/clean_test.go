package persist

import (
	"bytes"
	"testing"

	"joinopt/internal/faultinject"
	"joinopt/internal/plancache"
	"joinopt/internal/vfs"
)

// opLog wraps a vfs.FS and records the kind of every mutating call.
type opLog struct {
	vfs.FS
	ops []string
}

func (l *opLog) Create(name string) (vfs.File, error) {
	l.ops = append(l.ops, "Create")
	f, err := l.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &opLogFile{File: f, log: l}, nil
}

func (l *opLog) Append(name string) (vfs.File, error) {
	l.ops = append(l.ops, "Append")
	f, err := l.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &opLogFile{File: f, log: l}, nil
}

func (l *opLog) Rename(oldname, newname string) error {
	l.ops = append(l.ops, "Rename")
	return l.FS.Rename(oldname, newname)
}

func (l *opLog) Remove(name string) error {
	l.ops = append(l.ops, "Remove")
	return l.FS.Remove(name)
}

func (l *opLog) SyncDir(dir string) error {
	l.ops = append(l.ops, "SyncDir")
	return l.FS.SyncDir(dir)
}

type opLogFile struct {
	vfs.File
	log *opLog
}

func (f *opLogFile) Write(p []byte) (int, error) {
	f.log.ops = append(f.log.ops, "Write")
	return f.File.Write(p)
}

func (f *opLogFile) Sync() error {
	f.log.ops = append(f.log.ops, "Sync")
	return f.File.Sync()
}

// cleanDir leaves in fs what a graceful shutdown leaves: a snapshot of
// entries 0..n-1 and a journal holding only its header.
func cleanDir(t *testing.T, fs vfs.FS, n int) []*plancache.Entry {
	t.Helper()
	st, _, _ := openMem(t, fs)
	var all []*plancache.Entry
	for i := 0; i < n; i++ {
		all = append(all, testEntry(i))
		if _, err := st.Append(all[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(all); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return all
}

// TestCleanOpenWritesNothing pins the clean reopen: no Create, Write
// or Rename, at most 5 mutating operations (a fresh directory's Open
// takes 13), both files byte-identical afterwards, and the entries and
// stats that replaying the same files gives.
func TestCleanOpenWritesNothing(t *testing.T) {
	mem := vfs.NewMem()
	want := cleanDir(t, mem, 12)
	snap, _ := mem.ReadFile("cache/plans.snap")
	journal, _ := mem.ReadFile("cache/plans.journal")
	if len(journal) != headerLen {
		t.Fatalf("journal after a snapshot is %d bytes, want the %d-byte header", len(journal), headerLen)
	}
	// The rewrite the clean path skips would have written these very
	// bytes.
	if !bytes.Equal(EncodeSnapshot(want), snap) {
		t.Fatal("plans.snap differs from EncodeSnapshot of its entries")
	}

	log := &opLog{FS: mem}
	counter := faultinject.NewFaultFS(log, faultinject.FSConfig{})
	st, got, stats := openMem(t, counter)
	if ops := counter.Ops(); ops > 5 {
		t.Fatalf("clean Open took %d mutating operations (%v), want at most 5", ops, log.ops)
	}
	for _, op := range log.ops {
		if op == "Create" || op == "Write" || op == "Rename" {
			t.Fatalf("clean Open wrote: %v", log.ops)
		}
	}
	if (stats != RecoveryStats{SnapshotRecords: 12, Recovered: 12}) {
		t.Fatalf("stats = %+v", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !entriesEqual(got[i], want[i]) {
			t.Fatalf("entry %d not bit-identical", i)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap2, _ := mem.ReadFile("cache/plans.snap")
	journal2, _ := mem.ReadFile("cache/plans.journal")
	if !bytes.Equal(snap, snap2) || !bytes.Equal(journal, journal2) {
		t.Fatal("clean Open changed the files on disk")
	}
	if names := mem.Names(); len(names) != 2 {
		t.Fatalf("cache dir holds %v, want only the snapshot and the journal", names)
	}
}

// TestCleanOpenAppendsRecover pins that appends after a clean reopen
// land in the journal behind its header and recover after the snapshot.
func TestCleanOpenAppendsRecover(t *testing.T) {
	mem := vfs.NewMem()
	want := cleanDir(t, mem, 6)
	st, _, _ := openMem(t, mem)
	for i := 6; i < 9; i++ {
		want = append(want, testEntry(i))
		if since, err := st.Append(testEntry(i)); err != nil || since != i-5 {
			t.Fatalf("append %d after clean reopen: since=%d err=%v", i, since, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, stats := openMem(t, mem)
	if (stats != RecoveryStats{SnapshotRecords: 6, JournalRecords: 3, Recovered: 9}) {
		t.Fatalf("stats = %+v", stats)
	}
	for i := range want {
		if !entriesEqual(got[i], want[i]) {
			t.Fatalf("entry %d not bit-identical", i)
		}
	}
}

// TestOpenOpSequences pins how many mutating operations Open costs in
// each state — 13 for a fresh directory (TestInjectedAppendErrorIsCountedNotFatal
// places its fault after them) and for one with something to fold, 4
// when clean — and that an append after Open recovers in every state.
func TestOpenOpSequences(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(t *testing.T, mem *vfs.Mem)
		ops     int64
	}{
		{"fresh", func(*testing.T, *vfs.Mem) {}, 13},
		{"clean", func(t *testing.T, mem *vfs.Mem) { cleanDir(t, mem, 4) }, 4},
		{"journal records", func(t *testing.T, mem *vfs.Mem) {
			cleanDir(t, mem, 4)
			st, _, _ := openMem(t, mem)
			if _, err := st.Append(testEntry(9)); err != nil {
				t.Fatal(err)
			}
			_ = st.Close()
		}, 13},
		{"torn journal tail", func(t *testing.T, mem *vfs.Mem) {
			cleanDir(t, mem, 4)
			f, _ := mem.Append("cache/plans.journal")
			_, _ = f.Write([]byte{1, 2, 3})
			_ = f.Close()
		}, 13},
		{"torn snapshot tail", func(t *testing.T, mem *vfs.Mem) {
			cleanDir(t, mem, 4)
			data, _ := mem.ReadFile("cache/plans.snap")
			if err := mem.Truncate("cache/plans.snap", len(data)-3); err != nil {
				t.Fatal(err)
			}
		}, 13},
		{"corrupt snapshot record", func(t *testing.T, mem *vfs.Mem) {
			cleanDir(t, mem, 4)
			if err := mem.Corrupt("cache/plans.snap", headerLen+frameLen+3); err != nil {
				t.Fatal(err)
			}
		}, 13},
		{"torn journal header", func(t *testing.T, mem *vfs.Mem) {
			cleanDir(t, mem, 4)
			if err := mem.Truncate("cache/plans.journal", headerLen-1); err != nil {
				t.Fatal(err)
			}
		}, 13},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mem := vfs.NewMem()
			c.prepare(t, mem)
			counter := faultinject.NewFaultFS(mem, faultinject.FSConfig{})
			st, _, _ := openMem(t, counter)
			defer st.Close()
			if got := counter.Ops(); got != c.ops {
				t.Fatalf("Open took %d mutating operations, want %d", got, c.ops)
			}
			if c.ops == 13 {
				// Compaction leaves a header-only journal behind.
				if j, _ := mem.ReadFile("cache/plans.journal"); len(j) != headerLen {
					t.Fatalf("journal after compaction is %d bytes", len(j))
				}
			}
			// In every state, an append after Open lands on a frame
			// boundary and recovers last.
			if _, err := st.Append(testEntry(50)); err != nil {
				t.Fatal(err)
			}
			_ = st.Close()
			_, got, _ := openMem(t, mem)
			if len(got) == 0 || !entriesEqual(got[len(got)-1], testEntry(50)) {
				t.Fatal("the entry appended after Open did not recover last")
			}
		})
	}
}
