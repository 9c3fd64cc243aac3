// Package persist makes the plan cache survive restarts: the paper's
// central premise is that a good join order costs t·N² work units to
// find, so every plan thrown away by a redeploy is a cold
// re-optimization storm waiting at the next startup. The package
// implements crash-safe persistence for internal/plancache entries:
//
//   - an append-only journal of admitted entries, each record
//     length-prefixed and CRC-protected (Castagnoli), under a version
//     header that carries the fingerprint schema version;
//   - periodic compacted snapshots of the whole cache, written with
//     the temp-file → fsync → atomic-rename → fsync-dir protocol;
//   - startup recovery that loads the snapshot, replays the journal
//     on top, tolerates torn tails and corrupt records by truncating
//     at the first bad checksum (a corrupt plan is never admitted),
//     and refuses mismatched schema versions loudly. Records are
//     checksummed and decoded on every CPU, and the directory is
//     compacted only when there is something to fold: the clean state
//     a graceful shutdown leaves is reopened without a write.
//
// All I/O goes through the internal/vfs seam, so the crash-loop tests
// drive recovery through faultinject.FaultFS at every operation index
// and assert the recovered cache is always a valid prefix of the
// written history.
//
// The Manager (manager.go) bridges a Store to a live plancache.Cache:
// admission hooks append to the journal, every CompactEvery appends
// trigger a snapshot, and Flush persists the final state during
// graceful shutdown.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"joinopt/internal/plancache"
	"joinopt/internal/vfs"
)

// File names inside the cache directory.
const (
	snapshotName = "plans.snap"
	journalName  = "plans.journal"
	tmpSuffix    = ".tmp"
)

// ErrClosed reports an operation on a closed Store.
var ErrClosed = errors.New("persist: store closed")

// Options configures a Store.
type Options struct {
	// Dir is the cache directory (created if missing).
	Dir string
	// FS is the filesystem seam (default vfs.OS{}; tests inject
	// vfs.Mem or faultinject.FaultFS).
	FS vfs.FS
	// NoSyncEveryAppend disables the per-record journal fsync. By
	// default (false) an Append that returns nil is durable; with this
	// set, appended records are durable only at the next snapshot —
	// faster, weaker, and recovery still yields a valid prefix.
	NoSyncEveryAppend bool
}

func (o *Options) fill() {
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
}

// RecoveryStats describes what startup recovery found, for /statusz
// and the telemetry counters. The counts answer the operational
// question after a crash: how much state survived, and how much was
// affirmatively discarded versus torn off the tail.
type RecoveryStats struct {
	// SnapshotRecords / JournalRecords are the valid records replayed
	// from each file.
	SnapshotRecords int `json:"snapshotRecords"`
	JournalRecords  int `json:"journalRecords"`
	// Recovered is the number of distinct entries handed back from
	// recovery (journal records override snapshot records per key).
	Recovered int `json:"recovered"`
	// Discarded counts affirmatively-corrupt records (bad checksum,
	// undecodable payload) hit during replay; replay truncates at the
	// first one per file.
	Discarded int `json:"discarded"`
	// TornBytes counts bytes truncated off file tails (torn frames,
	// torn payloads, and everything after a corrupt record).
	TornBytes int `json:"tornBytes"`
	// TornHeader reports a file whose header itself was torn (crash
	// during file creation); the file was treated as empty.
	TornHeader bool `json:"tornHeader,omitempty"`
}

// Store is the durable backing of one plan cache: a snapshot file plus
// an append-only journal in one directory. Safe for concurrent use.
type Store struct {
	opts Options
	dir  string

	mu      sync.Mutex
	journal vfs.File // open append handle; nil after Close
	closed  bool
	// appendsSinceSnapshot counts journal records since the last
	// compaction (the Manager's compaction trigger).
	appendsSinceSnapshot int
}

// Open opens (creating if necessary) the store in opts.Dir and runs
// recovery: the snapshot is loaded, the journal is replayed on top,
// and the surviving entries are returned in replay order (snapshot
// records first, then journal records; later records for the same
// fingerprint supersede earlier ones when warmed into a cache). A large
// file's records are checksummed and decoded on every CPU.
//
// A clean directory — a journal with a valid header and no records,
// and no torn or discarded bytes in either file, which is what every
// graceful shutdown leaves — is reopened without writing: one
// directory fsync makes the previous process's renames durable before
// new appends land. Anything else is compacted: the recovered state is
// rewritten as a fresh snapshot and the journal is reset, so a torn
// tail from the previous crash can never sit underneath new appends.
//
// A schema or format version mismatch in either file returns
// ErrSchemaMismatch: plans fingerprinted under another canonicalization
// must never be served, and silently discarding them would hide a
// deployment mistake. Delete the cache directory to take the cold
// start explicitly.
func Open(opts Options) (*Store, []*plancache.Entry, RecoveryStats, error) {
	opts.fill()
	s := &Store{opts: opts, dir: opts.Dir}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, nil, RecoveryStats{}, fmt.Errorf("persist: create cache dir: %w", err)
	}
	// Leftover temp files are debris from a crash mid-snapshot; the
	// protocol never reads them.
	for _, n := range []string{snapshotName + tmpSuffix, journalName + tmpSuffix} {
		if err := opts.FS.Remove(filepath.Join(opts.Dir, n)); err != nil && !os.IsNotExist(err) {
			return nil, nil, RecoveryStats{}, fmt.Errorf("persist: clear temp file: %w", err)
		}
	}

	var st RecoveryStats
	var entries []*plancache.Entry
	// load replays one file onto entries and reports whether the file
	// was there with a valid header.
	load := func(name string, magic [4]byte) (records int, found bool, err error) {
		data, err := opts.FS.ReadFile(filepath.Join(opts.Dir, name))
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		if err != nil {
			return 0, false, fmt.Errorf("persist: read %s: %w", name, err)
		}
		ok, err := checkHeader(data, magic)
		if err != nil {
			return 0, false, fmt.Errorf("persist: %s: %w", name, err)
		}
		if !ok {
			st.TornHeader = true
			if len(data) > 0 {
				st.TornBytes += len(data)
			}
			return 0, false, nil
		}
		before := len(entries)
		var disc, torn int
		entries, disc, torn = replay(entries, data[headerLen:])
		st.Discarded += disc
		st.TornBytes += torn
		return len(entries) - before, true, nil
	}

	var err error
	if st.SnapshotRecords, _, err = load(snapshotName, magicSnapshot); err != nil {
		return nil, nil, st, err
	}
	var journalFound bool
	if st.JournalRecords, journalFound, err = load(journalName, magicJournal); err != nil {
		return nil, nil, st, err
	}

	// Deduplicate for the Recovered count (journal replays may repeat
	// snapshot keys after a crash between snapshot-rename and
	// journal-reset; warming applies them in order so the journal
	// version wins).
	seen := make(map[plancache.Key]struct{}, len(entries))
	for _, e := range entries {
		seen[e.Fingerprint] = struct{}{}
	}
	st.Recovered = len(seen)

	if journalFound && st.JournalRecords == 0 && !st.TornHeader && st.TornBytes == 0 && st.Discarded == 0 {
		// Clean: compaction would rewrite exactly the bytes on disk.
		if err := s.openJournalLocked(); err != nil {
			return nil, nil, st, err
		}
		return s, entries, st, nil
	}
	// Post-recovery compaction: fold the recovered state into a fresh
	// snapshot and an empty journal. This guarantees appends never land
	// after a torn tail, and bounds the next recovery's replay work.
	if err := s.writeSnapshotLocked(entries); err != nil {
		return nil, nil, st, err
	}
	if err := s.resetJournalLocked(); err != nil {
		return nil, nil, st, err
	}
	return s, entries, st, nil
}

// Append journals one admitted entry. By default the record is
// durable when Append returns nil; with NoSyncEveryAppend durability
// arrives at the next snapshot. Returns the number of appends since
// the last snapshot (the Manager's compaction trigger).
func (s *Store) Append(e *plancache.Entry) (sinceSnapshot int, err error) {
	if e == nil || e.Plan == nil {
		return 0, fmt.Errorf("persist: nil entry")
	}
	frame := appendEntry(make([]byte, 0, recordLen(e)), e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.journal == nil {
		return 0, ErrClosed
	}
	if _, err := s.journal.Write(frame); err != nil {
		return s.appendsSinceSnapshot, fmt.Errorf("persist: journal append: %w", err)
	}
	if !s.opts.NoSyncEveryAppend {
		if err := s.journal.Sync(); err != nil {
			return s.appendsSinceSnapshot, fmt.Errorf("persist: journal sync: %w", err)
		}
	}
	s.appendsSinceSnapshot++
	return s.appendsSinceSnapshot, nil
}

// Snapshot atomically replaces the snapshot file with the given
// entries and resets the journal. The write protocol is crash-safe at
// every step:
//
//  1. write snapshot to plans.snap.tmp, fsync, close
//  2. rename plans.snap.tmp → plans.snap, fsync dir
//  3. write an empty journal to plans.journal.tmp, fsync, close
//  4. rename plans.journal.tmp → plans.journal, fsync dir
//
// A crash before (2) leaves the old snapshot+journal intact; between
// (2) and (4) the journal still holds records that are also in the new
// snapshot — replay is idempotent per key, so recovery is unaffected.
func (s *Store) Snapshot(entries []*plancache.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.writeSnapshotLocked(entries); err != nil {
		return err
	}
	return s.resetJournalLocked()
}

func (s *Store) writeSnapshotLocked(entries []*plancache.Entry) error {
	buf := EncodeSnapshot(entries)
	tmp := filepath.Join(s.dir, snapshotName+tmpSuffix)
	f, err := s.opts.FS.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: create snapshot temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close snapshot: %w", err)
	}
	if err := s.opts.FS.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	if err := s.opts.FS.SyncDir(s.dir); err != nil {
		return fmt.Errorf("persist: sync cache dir: %w", err)
	}
	return nil
}

// resetJournalLocked atomically replaces the journal with an empty one
// (header only) and reopens the append handle onto it.
func (s *Store) resetJournalLocked() error {
	if s.journal != nil {
		cerr := s.journal.Close()
		s.journal = nil
		if cerr != nil {
			// A failed close can mean buffered journal bytes never
			// reached the disk; surfacing it (rather than resetting
			// on top of it) lets the manager count the failure and
			// the caller retry the compaction.
			return fmt.Errorf("persist: close old journal: %w", cerr)
		}
	}
	tmp := filepath.Join(s.dir, journalName+tmpSuffix)
	f, err := s.opts.FS.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: create journal temp: %w", err)
	}
	if _, err := f.Write(appendHeader(nil, magicJournal)); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: write journal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: sync journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close journal temp: %w", err)
	}
	if err := s.opts.FS.Rename(tmp, filepath.Join(s.dir, journalName)); err != nil {
		return fmt.Errorf("persist: publish journal: %w", err)
	}
	return s.openJournalLocked()
}

// openJournalLocked fsyncs the cache directory, making every rename in
// it durable before anything is appended, and opens the append handle
// onto the journal.
func (s *Store) openJournalLocked() error {
	if err := s.opts.FS.SyncDir(s.dir); err != nil {
		return fmt.Errorf("persist: sync cache dir: %w", err)
	}
	j, err := s.opts.FS.Append(filepath.Join(s.dir, journalName))
	if err != nil {
		return fmt.Errorf("persist: reopen journal: %w", err)
	}
	s.journal = j
	s.appendsSinceSnapshot = 0
	return nil
}

// Close releases the journal handle. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.journal != nil {
		err := s.journal.Close()
		s.journal = nil
		return err
	}
	return nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }
