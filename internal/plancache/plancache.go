// Package plancache is the serving layer's memory of past
// optimizations: a sharded LRU cache of optimized plans keyed by
// canonical query fingerprint (internal/fingerprint), with a
// hand-rolled singleflight layer that coalesces concurrent misses for
// the same key into exactly one optimizer run.
//
// Design points:
//
//   - Sharding: a power-of-two number of shards, each with its own
//     mutex, LRU list and in-flight table; the shard is selected from
//     the first fingerprint bytes, so contention scales with
//     concurrency, not with cache size.
//   - Singleflight: the first miss for a key becomes the leader and
//     runs the compute function on its own goroutine (behind a recover
//     barrier); every concurrent request for the same key waits for
//     either the shared result or its own context, whichever comes
//     first. Losers therefore still honor their own deadlines: a waiter
//     whose context expires returns ctx.Err() immediately while the
//     flight continues for the others.
//   - Cost-aware admission: optionally, an entry is only admitted by
//     evicting a victim whose recorded search budget is not larger
//     than the candidate's — a plan that took 10M units to find is not
//     displaced by one that took 10k. If no admissible victim is found
//     within the scan window the candidate is simply not cached (it is
//     still returned to its requesters).
//   - Doorkeeper: under cost-aware admission, a miss's Tier-1 entry
//     that would have to displace a resident of a full shard enters
//     only on its key's second miss (TinyLFU's doorkeeper: Einziger,
//     Friedman & Manes, ACM TOS 2017). Each shard remembers the keys
//     it refused in a Bloom filter, so a shape that never comes back
//     costs no eviction, and the serving layer schedules no upgrade
//     and journals nothing for it; a shape that does come back is
//     admitted by the cost rule on its next miss. Hits, Put, Warm,
//     WarmAll, Tier-2 entries and shards with room never consult it.
//   - Degraded plans (cancelled, panicked, starved runs — see the
//     anytime contract in internal/plan) are never admitted unless
//     AdmitDegraded is set: a plan truncated by one caller's deadline
//     must not become every future caller's answer.
//
// Statistics are atomic counters (hits, misses, coalesced waiters,
// evictions, admission rejections) plus per-shard sizes, snapshotted
// by Stats for /statusz and expvar export.
package plancache

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"joinopt/internal/fingerprint"
	"joinopt/internal/parallel"
	"joinopt/internal/plan"
	"joinopt/internal/telemetry"
)

// Key is the cache key: a canonical query fingerprint.
type Key = fingerprint.Fingerprint

// Entry is one cached optimization result. Plan permutations are
// expressed in *canonical* relation coordinates (position i of the
// fingerprint's canonical order), so one entry serves every query
// isomorphic to the one that populated it; the serve layer translates
// back into each requester's labeling.
type Entry struct {
	// Fingerprint is the key the entry is stored under.
	Fingerprint Key
	// Plan is the optimized plan in canonical coordinates.
	Plan *plan.Plan
	// BudgetUsed is the entry's admission weight in budget units, its
	// replacement resistance under cost-aware admission. A TierFull
	// entry weighs what its search spent; a TierGreedy entry weighs the
	// budget the serving layer reserves for its background upgrade. A
	// tier upgrade keeps the larger weight.
	BudgetUsed int64
	// Tier records which planning tier produced the plan: TierGreedy
	// for the fast-path greedy planner, TierFull for the full anytime
	// search. Zero (entries from before tiering existed) ranks as
	// TierFull — see TierRank. Replacement is upgrade-only: an entry
	// never moves to a lower-ranked tier in place.
	Tier uint8
}

// Planning tiers, ordered by rank: a higher tier may replace a lower
// one under the same key, never the reverse.
const (
	// TierGreedy marks plans from the Tier-1 greedy fast path
	// (internal/greedy): served immediately on a miss, upgraded in the
	// background.
	TierGreedy uint8 = 1
	// TierFull marks plans from the full anytime search
	// (internal/core).
	TierFull uint8 = 2
)

// TierRank maps an entry's Tier to its replacement rank. The zero Tier
// (entries persisted or constructed before tiering) ranks as TierFull:
// those plans came from the full search, and warm-started snapshots
// must not be clobbered by greedy plans after an upgrade.
func TierRank(t uint8) uint8 {
	if t == 0 {
		return TierFull
	}
	return t
}

// Config tunes a cache.
type Config struct {
	// Capacity is the total entry budget across shards (default 1024,
	// minimum 1 per shard).
	Capacity int
	// Shards is rounded up to a power of two (default 16).
	Shards int
	// CostAware enables cost-aware admission: an incoming entry may
	// only evict a victim whose BudgetUsed does not exceed its own,
	// found among its shard's admissionScan least recent entries. It
	// also arms the doorkeeper: a miss's Tier-1 entry that would have to
	// displace a resident of a full shard is refused on its key's first
	// miss and weighed by the cost rule on the next.
	CostAware bool
	// AdmitDegraded admits plans flagged Degraded (default false:
	// degraded plans are returned to their requesters but not cached).
	AdmitDegraded bool
	// Trace, if non-nil, receives cache hit/miss/coalesce events. Hits
	// are stamped with the cached entry's BudgetUsed (its admission
	// weight: the work units a hit saves — the cache's whole value
	// proposition in one number); misses and coalesces carry 0, since no
	// budget meter exists yet at that point. nil is the zero-overhead
	// path.
	Trace *telemetry.Tracer
}

func (c *Config) fill() {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	c.Shards = ceilPow2(c.Shards)
}

// admissionScan is how many LRU-end entries cost-aware admission
// considers as eviction victims before it refuses the candidate.
const admissionScan = 4

// The doorkeeper holds doorBitsPerSlot bits per slot of shard capacity
// and is cleared after recording doorWindow keys per slot. With its two
// probes, that keeps false positives near (1 − e^(−2·8/64))² ≈ 5% at
// the end of a window.
const (
	doorBitsPerSlot = 64
	doorWindow      = 8
)

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Stats is an atomic snapshot of cache counters, JSON-ready for
// /statusz and expvar.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	Rejected  uint64 `json:"rejected"`
	// FirstMissRefused counts the Rejected entries that the doorkeeper
	// refused because their key had not missed before: "not repeated
	// yet", as opposed to "too light to evict".
	FirstMissRefused uint64 `json:"firstMissRefused"`
	// Warmed counts entries admitted through the recovery path (Warm)
	// rather than by live optimizations.
	Warmed uint64 `json:"warmed"`
	// TierRejected counts inserts refused because they would downgrade
	// an entry to a lower planning tier (a late greedy result arriving
	// after the background upgrade already landed).
	TierRejected uint64 `json:"tierRejected"`
	// TargetedEvictions counts entries removed by EvictWhere (cluster
	// ownership eviction on ring epoch changes), separate from
	// capacity-pressure Evictions.
	TargetedEvictions uint64 `json:"targetedEvictions"`
	Entries           int    `json:"entries"`
	InFlight          int    `json:"inFlight"`
	Shards            []int  `json:"shardEntries"`
}

// Hooks observe cache mutations, for the durability layer
// (internal/persist journals admissions and snapshots the surviving
// set). Hooks run after the shard lock is released — an OnAdmit that
// fsyncs a journal must not serialize unrelated shards — so a hook
// observes admissions in per-key order but not in a global total
// order. Hooks must not call back into the cache for the same key.
type Hooks struct {
	// OnAdmit fires after e is admitted (inserted or refreshed in
	// place). Warm-path admissions (recovery) do not fire it.
	OnAdmit func(e *Entry)
}

// Cache is a sharded LRU plan cache with request coalescing. The zero
// value is not usable; construct with New.
type Cache struct {
	shards   []shard
	mask     uint64
	perShard int

	costAware     bool
	admitDegraded bool
	trace         *telemetry.Tracer
	hooks         atomic.Pointer[Hooks]

	hits             atomic.Uint64
	misses           atomic.Uint64
	coalesced        atomic.Uint64
	evictions        atomic.Uint64
	rejected         atomic.Uint64
	firstMissRefused atomic.Uint64
	warmed           atomic.Uint64
	tierRejected     atomic.Uint64
	// targetedEvictions counts EvictWhere removals (cluster ownership
	// eviction), distinct from capacity-pressure evictions.
	targetedEvictions atomic.Uint64
}

// New builds a cache from cfg (zero value = defaults).
func New(cfg Config) *Cache {
	cfg.fill()
	per := cfg.Capacity / cfg.Shards
	if per < 1 {
		per = 1
	}
	c := &Cache{
		shards:        make([]shard, cfg.Shards),
		mask:          uint64(cfg.Shards - 1),
		perShard:      per,
		costAware:     cfg.CostAware,
		admitDegraded: cfg.AdmitDegraded,
		trace:         cfg.Trace,
	}
	for i := range c.shards {
		c.shards[i].init()
	}
	return c
}

//ljqlint:hotpath
func (c *Cache) shardOf(k Key) *shard {
	return &c.shards[c.shardIndex(k)]
}

//ljqlint:hotpath
func (c *Cache) shardIndex(k Key) uint64 {
	// The fingerprint is a cryptographic hash; its first bytes are
	// uniformly distributed, so they select the shard directly.
	return (uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24) & c.mask
}

// Get returns the cached entry, if present, bumping its recency. A hit
// counts as GetOrCompute's does; a miss counts nothing, so a caller
// that falls back to GetOrCompute after a miss counts it once.
//
//ljqlint:hotpath
func (c *Cache) Get(k Key) (*Entry, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	n, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.moveFront(n)
	e := n.entry // insertLocked replaces it under the lock
	s.mu.Unlock()
	c.hits.Add(1)
	if tr := c.trace; tr != nil {
		tr.Emit(telemetry.EvCacheHit, e.BudgetUsed, "")
	}
	return e, true
}

// Peek returns the cached entry without bumping recency or touching
// the hit/miss counters: a pure read for observers that must not
// distort the LRU order or the cache's serving statistics (the cluster
// router's read-repair comparison, tests).
func (c *Cache) Peek(k Key) (*Entry, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.items[k]
	if !ok {
		return nil, false
	}
	return n.entry, true
}

// EvictWhere removes every cached entry whose key satisfies pred and
// returns how many were removed — the cluster rebalancer's ownership
// eviction: when an epoch change moves an arc away, the old owner
// drops exactly the fingerprints it no longer owns. Keys with an
// in-flight singleflight computation are skipped (the flight's finish
// will re-insert momentarily; evicting under it would only thrash),
// as are keys whose pred says keep. Removals are counted in
// Stats.TargetedEvictions, separate from capacity evictions. Hooks do
// not fire: ownership eviction is not a capacity displacement, and the
// durability layer's next compacting snapshot (built from Dump)
// reflects the shrunken set naturally.
func (c *Cache) EvictWhere(pred func(Key) bool) int {
	evicted := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var victims []*node
		//ljqlint:allow detrand -- victim selection is order-independent: the evicted SET is pred-determined, and counters are sums
		for k, n := range s.items {
			if _, inFlight := s.flights[k]; inFlight {
				continue
			}
			if pred(k) {
				victims = append(victims, n)
			}
		}
		for _, n := range victims {
			s.drop(n)
		}
		s.mu.Unlock()
		evicted += len(victims)
	}
	if evicted > 0 {
		c.targetedEvictions.Add(uint64(evicted))
	}
	return evicted
}

// SetHooks installs (or with a zero Hooks, clears) the mutation
// observers. Typically called once at startup, after recovery has
// warmed the cache and before traffic — installing the journal hook
// first would re-journal every recovered entry.
func (c *Cache) SetHooks(h Hooks) {
	c.hooks.Store(&h)
}

// fireHooks invokes the installed observers for one completed insert,
// outside the shard lock.
func (c *Cache) fireHooks(stored *Entry) {
	h := c.hooks.Load()
	if h == nil {
		return
	}
	if stored != nil && h.OnAdmit != nil {
		h.OnAdmit(stored)
	}
}

// Put inserts e under its fingerprint, applying the admission policy.
// It reports whether the entry was admitted.
func (c *Cache) Put(e *Entry) bool {
	if e == nil || e.Plan == nil {
		return false
	}
	if e.Plan.Degraded && !c.admitDegraded {
		c.rejected.Add(1)
		return false
	}
	s := c.shardOf(e.Fingerprint)
	s.mu.Lock()
	stored := c.insertLocked(s, e)
	s.mu.Unlock()
	c.fireHooks(stored)
	return stored != nil
}

// Warm admits e through the normal admission policy without firing
// hooks: the recovery path (internal/persist) replays journaled
// entries through Warm so they are not immediately re-journaled.
// Degraded plans are still refused (defense in depth: the journal
// never contains them, but a warmed entry must satisfy the same
// invariants as an admitted one).
func (c *Cache) Warm(e *Entry) bool {
	if !c.warm(e) {
		return false
	}
	c.warmed.Add(1)
	return true
}

// warm is Warm without the Warmed count, which WarmAll adds once.
func (c *Cache) warm(e *Entry) bool {
	if e == nil || e.Plan == nil {
		return false
	}
	if e.Plan.Degraded && !c.admitDegraded {
		c.rejected.Add(1)
		return false
	}
	s := c.shardOf(e.Fingerprint)
	s.mu.Lock()
	stored := c.insertLocked(s, e)
	s.mu.Unlock()
	return stored != nil
}

// WarmAll warms entries in slice order, as a loop of Warm would, and
// returns how many the cache accepted. The work is split over
// parallel.Workers(len(entries)) workers by shard: each worker warms,
// in slice order, the entries whose shard it owns, so every shard sees
// the insert sequence the sequential loop gives it, and the contents,
// LRU order, evictions and counters come out the same.
//
// An empty shard's map is first replaced by one sized for the entries
// headed its way (at most the shard's capacity), so recovery does not
// rehash it as it grows; a shard already holding entries is left as
// it is.
func (c *Cache) WarmAll(entries []*Entry) int {
	c.presize(entries)
	workers := min(parallel.Workers(len(entries)), len(c.shards))
	warmed := make([]int, workers)
	parallel.Do(workers, func(w int) {
		n := 0
		for _, e := range entries {
			if e == nil || e.Plan == nil || c.shardIndex(e.Fingerprint)%uint64(workers) != uint64(w) {
				continue
			}
			if c.warm(e) {
				n++
			}
		}
		warmed[w] = n
	})
	total := 0
	for _, n := range warmed {
		total += n
	}
	c.warmed.Add(uint64(total))
	return total
}

// presize gives each empty shard a map sized for its share of entries.
func (c *Cache) presize(entries []*Entry) {
	counts := make([]int, len(c.shards))
	for _, e := range entries {
		if e != nil && e.Plan != nil {
			counts[c.shardIndex(e.Fingerprint)]++
		}
	}
	for i, n := range counts {
		if n == 0 {
			continue
		}
		s := &c.shards[i]
		s.mu.Lock()
		if len(s.items) == 0 {
			s.items = make(map[Key]*node, min(n, c.perShard))
		}
		s.mu.Unlock()
	}
}

// Dump returns a copy of the current entry set, sorted by fingerprint
// bytes. The sort makes persisted snapshots byte-stable: two dumps of
// the same logical state serialize identically regardless of shard
// map iteration order. Entries are the live pointers (entries are
// immutable once admitted); the slice is the caller's.
func (c *Cache) Dump() []*Entry {
	var out []*Entry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		//ljqlint:allow detrand -- map-order iteration is made deterministic by the fingerprint sort below
		for _, n := range s.items {
			out = append(out, n.entry)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		return bytes.Compare(out[a].Fingerprint[:], out[b].Fingerprint[:]) < 0
	})
	return out
}

// insertLocked performs insert-with-eviction under the shard lock and
// returns the entry now held under the key (nil if admission was
// refused).
func (c *Cache) insertLocked(s *shard, e *Entry) *Entry {
	if n, ok := s.items[e.Fingerprint]; ok {
		er, nr := TierRank(n.entry.Tier), TierRank(e.Tier)
		switch {
		case nr < er:
			// Upgrade-only replacement: a lower-tier plan never
			// displaces a higher-tier one. This is also what makes the
			// background upgrade safe against the singleflight: if the
			// Tier-2 upgrade lands while the original greedy flight is
			// still finishing, the flight's late Tier-1 insert is
			// refused here instead of clobbering the better plan.
			c.tierRejected.Add(1)
			return nil
		case nr > er:
			// Tier upgrade: the new plan wins wholesale, keeping the
			// larger budget weight (the shape has had that much search
			// spent on it in total).
			if n.entry.BudgetUsed > e.BudgetUsed {
				e = &Entry{Fingerprint: e.Fingerprint, Plan: e.Plan, BudgetUsed: n.entry.BudgetUsed, Tier: e.Tier}
			}
			s.replace(n, e)
		case e.BudgetUsed > n.entry.BudgetUsed:
			// Same tier, refresh in place: a newer optimization of the
			// same shape replaces the old plan (keep the larger budget
			// weight).
			s.replace(n, e)
		default:
			old := n.entry
			s.replace(n, &Entry{Fingerprint: old.Fingerprint, Plan: e.Plan, BudgetUsed: old.BudgetUsed, Tier: old.Tier})
		}
		s.moveFront(n)
		return n.entry
	}
	if len(s.items) >= c.perShard {
		v := s.evictionVictim(c.costAware, e.BudgetUsed)
		if v == nil {
			c.rejected.Add(1)
			return nil
		}
		s.drop(v)
		c.evictions.Add(1)
	}
	s.insert(&node{entry: e})
	return e
}

// GetOrCompute returns the entry for k, computing it at most once per
// concurrent burst: one caller becomes the leader and runs compute on
// its own goroutine, under its own ctx; the rest coalesce onto the
// shared result. Coalesced losers still honor their own ctx: if a
// waiter's ctx expires first, its GetOrCompute returns ctx.Err() while
// the flight continues for the remaining waiters. The leader instead
// returns only once its flight resolves — the flight runs under the
// leader's ctx, so its deadline bounds the computation transitively
// (compute functions must be ctx-aware, as core.Optimizer.RunContext
// is). compute does not escape, so a caller's closure costs no
// allocation.
//
// hit reports a cache hit; shared reports that the result came from a
// flight started by another request.
func (c *Cache) GetOrCompute(ctx context.Context, k Key, compute func(ctx context.Context) (*Entry, error)) (e *Entry, hit, shared bool, err error) {
	s := c.shardOf(k)
	s.mu.Lock()
	if n, ok := s.items[k]; ok {
		s.moveFront(n)
		e = n.entry // insertLocked replaces it under the lock
		s.mu.Unlock()
		c.hits.Add(1)
		if tr := c.trace; tr != nil {
			tr.Emit(telemetry.EvCacheHit, e.BudgetUsed, "")
		}
		return e, true, false, nil
	}
	if fl, ok := s.flights[k]; ok {
		s.mu.Unlock()
		c.coalesced.Add(1)
		if tr := c.trace; tr != nil {
			tr.Emit(telemetry.EvCacheCoalesce, 0, "")
		}
		return c.wait(ctx, fl, true)
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[k] = fl
	s.mu.Unlock()
	c.misses.Add(1)
	if tr := c.trace; tr != nil {
		tr.Emit(telemetry.EvCacheMiss, 0, "")
	}

	// The leader computes its own flight to the end: the flight runs
	// under the leader's ctx, so a deadline stops the computation itself
	// (the anytime optimizer returns its incumbent, flagged degraded)
	// and the flight resolves promptly — racing ctx here would discard
	// that incumbent. Only coalesced waiters race their own deadline
	// against someone else's flight.
	c.run(ctx, s, k, fl, compute)
	return fl.entry, false, false, fl.err
}

// run computes a flight on the leader's goroutine and finishes it.
func (c *Cache) run(ctx context.Context, s *shard, k Key, fl *flight, compute func(ctx context.Context) (*Entry, error)) {
	defer func() {
		if r := recover(); r != nil {
			// The panic barrier required of singleflight leaders: a
			// crash in compute must resolve the flight (waiters would
			// otherwise hang forever) and surface as an error, not
			// kill the process.
			fl.err = fmt.Errorf("plancache: compute panicked: %v", r)
			c.finish(s, k, fl)
		}
	}()
	fl.entry, fl.err = compute(ctx)
	c.finish(s, k, fl)
}

// finish publishes a flight's result: admits the entry, removes the
// flight, and wakes every waiter. A Tier-1 entry headed for a full
// cost-aware shard passes the doorkeeper (firstMiss) before the cost
// rule. Idempotence is not needed — each flight finishes exactly once
// (the recover path only runs when the normal path did not).
func (c *Cache) finish(s *shard, k Key, fl *flight) {
	var stored *Entry
	e := fl.entry
	s.mu.Lock()
	switch {
	case fl.err != nil || e == nil:
	case e.Plan == nil || (e.Plan.Degraded && !c.admitDegraded):
		c.rejected.Add(1)
	case c.firstMiss(s, e):
		c.rejected.Add(1)
		c.firstMissRefused.Add(1)
	default:
		stored = c.insertLocked(s, e)
	}
	delete(s.flights, k)
	s.mu.Unlock()
	close(fl.done)
	c.fireHooks(stored)
}

// firstMiss is the doorkeeper: it reports whether a miss's entry e
// must be refused because its key has not missed before. Only a Tier-1
// entry that would have to displace a resident of a full cost-aware
// shard is checked. Its key's first sighting is recorded in the shard's
// filter and refused; a later miss of the key goes on to the cost rule.
// The caller holds s.mu.
func (c *Cache) firstMiss(s *shard, e *Entry) bool {
	if !c.costAware || e.Tier != TierGreedy || len(s.items) < c.perShard {
		return false
	}
	if _, resident := s.items[e.Fingerprint]; resident {
		return false
	}
	return !s.door.seen(e.Fingerprint, c.perShard)
}

// wait blocks until the flight resolves or ctx expires, whichever is
// first.
func (c *Cache) wait(ctx context.Context, fl *flight, shared bool) (*Entry, bool, bool, error) {
	select {
	case <-fl.done:
		return fl.entry, false, shared, fl.err
	case <-ctx.Done():
		return nil, false, shared, ctx.Err()
	}
}

// TierCounts reports the cache's tier composition: how many resident
// entries hold greedy (Tier-1) plans awaiting upgrade versus
// full-search plans (Tier-2; legacy untagged entries count as full —
// see TierRank). It sums counts the shards keep as entries come and
// go, so it holds each shard's lock only to read two numbers.
func (c *Cache) TierCounts() (greedy, full int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		greedy += s.greedy
		full += len(s.items) - s.greedy
		s.mu.Unlock()
	}
	return greedy, full
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Coalesced:         c.coalesced.Load(),
		Evictions:         c.evictions.Load(),
		Rejected:          c.rejected.Load(),
		FirstMissRefused:  c.firstMissRefused.Load(),
		Warmed:            c.warmed.Load(),
		TierRejected:      c.tierRejected.Load(),
		TargetedEvictions: c.targetedEvictions.Load(),
		Shards:            make([]int, len(c.shards)),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Shards[i] = len(s.items)
		st.Entries += len(s.items)
		st.InFlight += len(s.flights)
		s.mu.Unlock()
	}
	return st
}

// RegisterMetrics exports the cache's atomic counters into reg under
// the given metric-name prefix (say "ljq_plancache"). The registered
// readers snapshot the live atomics at scrape time — there is no
// second bookkeeping path to drift out of sync with Stats.
func (c *Cache) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.CounterFunc(prefix+"_hits_total", "Plan cache hits.", c.hits.Load)
	reg.CounterFunc(prefix+"_misses_total", "Plan cache misses.", c.misses.Load)
	reg.CounterFunc(prefix+"_coalesced_total", "Requests coalesced onto another request's in-flight optimization.", c.coalesced.Load)
	reg.CounterFunc(prefix+"_evictions_total", "Entries evicted to admit newer plans.", c.evictions.Load)
	reg.CounterFunc(prefix+"_rejected_total", "Entries refused admission (degraded plans, cost-aware policy, doorkeeper).", c.rejected.Load)
	reg.CounterFunc(prefix+"_first_miss_refused_total", "Tier-1 entries refused on their key's first miss into a full shard (the doorkeeper; also in _rejected_total).", c.firstMissRefused.Load)
	reg.CounterFunc(prefix+"_tier_downgrades_refused_total", "Inserts refused because they would downgrade a cached entry's planning tier.", c.tierRejected.Load)
	reg.CounterFunc(prefix+"_targeted_evictions_total", "Entries removed by EvictWhere (cluster ownership eviction).", c.targetedEvictions.Load)
	reg.GaugeFunc(prefix+"_entries", "Entries currently cached.", func() float64 {
		return float64(c.Len())
	})
	reg.GaugeFunc(prefix+"_tier1_entries", "Cached greedy (Tier-1) plans awaiting background upgrade.", func() float64 {
		g, _ := c.TierCounts()
		return float64(g)
	})
	reg.GaugeFunc(prefix+"_tier2_entries", "Cached full-search (Tier-2) plans.", func() float64 {
		_, f := c.TierCounts()
		return float64(f)
	})
	reg.GaugeFunc(prefix+"_inflight_flights", "Singleflight computations currently in progress.", func() float64 {
		total := 0
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			total += len(s.flights)
			s.mu.Unlock()
		}
		return float64(total)
	})
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.items)
		s.mu.Unlock()
	}
	return total
}

// ---------------------------------------------------------------------

// flight is one in-progress computation shared by its waiters. entry
// and err are written once, before done is closed; waiters read them
// only after <-done (the close is the happens-before edge).
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// node is an intrusive LRU list node.
type node struct {
	prev, next *node
	entry      *Entry
}

// shard is one lock domain: an LRU list (sentinel ring), its index,
// the in-flight table and the doorkeeper. Entries enter, change and
// leave only through insert, replace and drop, which keep greedy in
// step.
type shard struct {
	mu      sync.Mutex
	items   map[Key]*node
	flights map[Key]*flight
	head    node // sentinel: head.next = most recent, head.prev = LRU
	greedy  int  // resident entries holding Tier-1 plans
	door    doorkeeper
}

// doorkeeper is a shard's Bloom filter of the keys whose Tier-1 miss
// it refused. Its bits are allocated on first use, at doorBitsPerSlot
// per slot of shard capacity, and cleared once it has recorded
// doorWindow keys per slot.
type doorkeeper struct {
	bits     []uint64
	recorded int
}

// seen reports whether k was recorded since the filter was last
// cleared, and records k if it was not.
func (d *doorkeeper) seen(k Key, perShard int) bool {
	if d.bits == nil {
		d.bits = make([]uint64, perShard*doorBitsPerSlot/64)
	}
	i, j := d.probes(k)
	if d.bits[i/64]&(1<<(i%64)) != 0 && d.bits[j/64]&(1<<(j%64)) != 0 {
		return true
	}
	if d.recorded == doorWindow*perShard {
		clear(d.bits)
		d.recorded = 0
	}
	d.bits[i/64] |= 1 << (i % 64)
	d.bits[j/64] |= 1 << (j % 64)
	d.recorded++
	return false
}

// probes derives the filter's two bit positions from all 32 bytes of
// k. A shard's keys share the bits of their first bytes that chose the
// shard, so every word of k goes through a full-avalanche mix.
func (d *doorkeeper) probes(k Key) (i, j uint64) {
	var h uint64
	for w := 0; w < len(k); w += 8 {
		h = splitmix64(h ^ binary.LittleEndian.Uint64(k[w:]))
	}
	m := uint64(len(d.bits)) * 64
	i, _ = bits.Mul64(h, m)
	j, _ = bits.Mul64(splitmix64(h), m)
	return i, j
}

// splitmix64 is one step of the SplitMix64 generator: a golden-ratio
// increment, then its finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (s *shard) init() {
	s.items = make(map[Key]*node)
	s.flights = make(map[Key]*flight)
	s.head.next = &s.head
	s.head.prev = &s.head
}

// insert indexes n and links it as the most recent entry.
func (s *shard) insert(n *node) {
	s.items[n.entry.Fingerprint] = n
	s.pushFront(n)
	s.greedy += greedyCount(n.entry)
}

// replace swaps the entry n holds for e, under the same key.
func (s *shard) replace(n *node, e *Entry) {
	s.greedy += greedyCount(e) - greedyCount(n.entry)
	n.entry = e
}

// drop unlinks n and removes it from the index.
func (s *shard) drop(n *node) {
	s.remove(n)
	delete(s.items, n.entry.Fingerprint)
	s.greedy -= greedyCount(n.entry)
}

// greedyCount is what e adds to its shard's greedy count.
func greedyCount(e *Entry) int {
	if TierRank(e.Tier) == TierGreedy {
		return 1
	}
	return 0
}

func (s *shard) pushFront(n *node) {
	n.prev = &s.head
	n.next = s.head.next
	n.prev.next = n
	n.next.prev = n
}

func (s *shard) remove(n *node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

//ljqlint:hotpath
func (s *shard) moveFront(n *node) {
	s.remove(n)
	s.pushFront(n)
}

// evictionVictim picks the entry to displace: the LRU entry, unless
// cost-aware admission is on, in which case the first of the
// admissionScan least-recent entries whose BudgetUsed does not exceed
// the candidate's. nil means the candidate should be rejected.
func (s *shard) evictionVictim(costAware bool, candidateBudget int64) *node {
	lru := s.head.prev
	if lru == &s.head {
		return nil
	}
	if !costAware {
		return lru
	}
	n := lru
	for i := 0; i < admissionScan && n != &s.head; i++ {
		if n.entry.BudgetUsed <= candidateBudget {
			return n
		}
		n = n.prev
	}
	return nil
}
