package persist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"joinopt/internal/plancache"
	"joinopt/internal/telemetry"
)

// Manager bridges a Store to a live plancache.Cache:
//
//   - Recover warms the cache with the entries Open returned;
//   - Bind installs the cache's admission hook, so every admitted plan
//     is journaled (durable before the admitting request completes,
//     under the default per-append fsync);
//   - every CompactEvery journal appends, the whole cache is
//     re-snapshotted and the journal reset, bounding both journal
//     growth and the next startup's replay;
//   - Flush snapshots on demand (graceful shutdown).
//
// Append and snapshot errors do not fail the admitting request — the
// plan is already in memory and correct; losing durability for one
// entry is strictly better than failing the optimization. Errors are
// counted (AppendErrors/FlushErrors, exported via RegisterMetrics and
// Stats) and the first error of each kind is retained for /statusz, so
// a sick disk is loud without being fatal.
type Manager struct {
	store *Store
	cache *plancache.Cache

	compactEvery int
	recovery     RecoveryStats

	// flushMu serializes snapshots (a drain-time Flush racing a
	// compaction must not interleave their temp-file protocols).
	flushMu sync.Mutex

	appends      atomic.Uint64
	appendErrors atomic.Uint64
	snapshots    atomic.Uint64
	flushErrors  atomic.Uint64

	errMu      sync.Mutex
	lastAppend error
	lastFlush  error
}

// ManagerStats is the durability section of /statusz.
type ManagerStats struct {
	Recovery      RecoveryStats `json:"recovery"`
	Appends       uint64        `json:"journalAppends"`
	AppendErrors  uint64        `json:"journalAppendErrors"`
	Snapshots     uint64        `json:"snapshots"`
	FlushErrors   uint64        `json:"flushErrors"`
	LastAppendErr string        `json:"lastAppendError,omitempty"`
	LastFlushErr  string        `json:"lastFlushError,omitempty"`
}

// NewManager pairs a Store with the cache it persists. compactEvery
// ≤ 0 selects the default (256 appends between snapshots).
func NewManager(store *Store, cache *plancache.Cache, compactEvery int) *Manager {
	if compactEvery <= 0 {
		compactEvery = 256
	}
	return &Manager{store: store, cache: cache, compactEvery: compactEvery}
}

// Recover warms the cache with recovered entries (through
// Cache.WarmAll, which keeps replay order per shard, so journal records
// supersede snapshot records per key) and retains the recovery stats.
// Returns how many entries the cache accepted. Call before Bind —
// warming after the hook is installed would re-journal every entry.
func (m *Manager) Recover(entries []*plancache.Entry, st RecoveryStats) int {
	m.recovery = st
	return m.cache.WarmAll(entries)
}

// Bind installs the journal hook on the cache. Admissions after Bind
// are journaled; every compactEvery appends triggers a compacting
// snapshot of the full cache.
func (m *Manager) Bind() {
	m.cache.SetHooks(plancache.Hooks{OnAdmit: m.onAdmit})
}

func (m *Manager) onAdmit(e *plancache.Entry) {
	since, err := m.store.Append(e)
	m.appends.Add(1)
	if err != nil {
		m.appendErrors.Add(1)
		m.errMu.Lock()
		m.lastAppend = err
		m.errMu.Unlock()
		return
	}
	if since >= m.compactEvery {
		if err := m.Flush(); err != nil {
			// Already counted by Flush; nothing more to do — the
			// journal keeps absorbing appends until a flush succeeds.
			_ = err
		}
	}
}

// Flush snapshots the cache's current entry set and resets the
// journal. Safe to call concurrently with admissions; the snapshot is
// a consistent per-shard view sorted by fingerprint.
func (m *Manager) Flush() error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	err := m.store.Snapshot(m.cache.Dump())
	if err != nil {
		m.flushErrors.Add(1)
		m.errMu.Lock()
		m.lastFlush = err
		m.errMu.Unlock()
		return fmt.Errorf("persist: flush: %w", err)
	}
	m.snapshots.Add(1)
	return nil
}

// Close flushes a final snapshot and closes the store.
func (m *Manager) Close() error {
	ferr := m.Flush()
	cerr := m.store.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Recovery returns the stats recorded by Recover.
func (m *Manager) Recovery() RecoveryStats { return m.recovery }

// Stats snapshots the manager's counters.
func (m *Manager) Stats() ManagerStats {
	st := ManagerStats{
		Recovery:     m.recovery,
		Appends:      m.appends.Load(),
		AppendErrors: m.appendErrors.Load(),
		Snapshots:    m.snapshots.Load(),
		FlushErrors:  m.flushErrors.Load(),
	}
	m.errMu.Lock()
	if m.lastAppend != nil {
		st.LastAppendErr = m.lastAppend.Error()
	}
	if m.lastFlush != nil {
		st.LastFlushErr = m.lastFlush.Error()
	}
	m.errMu.Unlock()
	return st
}

// RegisterMetrics exports the durability counters into reg under the
// given prefix (say "ljq_persist"): recovered/discarded/torn recovery
// totals plus live append/snapshot/error counters.
func (m *Manager) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	rec := m.recovery
	reg.CounterFunc(prefix+"_recovered_records_total", "Plan-cache entries recovered at startup (snapshot + journal replay).",
		func() uint64 { return uint64(rec.Recovered) })
	reg.CounterFunc(prefix+"_discarded_records_total", "Corrupt records discarded during startup replay (bad checksum or undecodable).",
		func() uint64 { return uint64(rec.Discarded) })
	reg.CounterFunc(prefix+"_torn_bytes_total", "Bytes truncated off torn journal/snapshot tails during startup replay.",
		func() uint64 { return uint64(rec.TornBytes) })
	reg.CounterFunc(prefix+"_journal_appends_total", "Entries appended to the plan journal.", m.appends.Load)
	reg.CounterFunc(prefix+"_journal_append_errors_total", "Journal append failures (plan stayed cached in memory only).", m.appendErrors.Load)
	reg.CounterFunc(prefix+"_snapshots_total", "Compacting snapshots written.", m.snapshots.Load)
	reg.CounterFunc(prefix+"_flush_errors_total", "Snapshot flush failures.", m.flushErrors.Load)
}
