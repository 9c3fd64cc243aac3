package plancache

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/parallel"
	"joinopt/internal/plan"
)

// key fabricates a distinct fingerprint from an integer.
func key(i int) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[2] = byte(i >> 16)
	k[31] = 0xaa
	return k
}

func entry(i int, budget int64) *Entry {
	return &Entry{
		Fingerprint: key(i),
		Plan:        &plan.Plan{TotalCost: float64(i)},
		BudgetUsed:  budget,
	}
}

func TestPutGetLRU(t *testing.T) {
	c := New(Config{Capacity: 4, Shards: 1})
	for i := 0; i < 4; i++ {
		if !c.Put(entry(i, 10)) {
			t.Fatalf("entry %d not admitted", i)
		}
	}
	// Touch 0 so 1 becomes LRU; insert 4 and expect 1 evicted.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("entry 0 missing")
	}
	if !c.Put(entry(4, 10)) {
		t.Fatal("entry 4 not admitted")
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("LRU entry 1 should have been evicted")
	}
	for _, i := range []int{0, 2, 3, 4} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("entry %d should be cached", i)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want 4", st.Entries)
	}
}

func TestCostAwareAdmission(t *testing.T) {
	c := New(Config{Capacity: 2, Shards: 1, CostAware: true})
	c.Put(entry(0, 1000))
	c.Put(entry(1, 2000))
	// A cheap candidate may not displace expensive incumbents.
	if c.Put(entry(2, 10)) {
		t.Fatal("cheap candidate displaced an expensive incumbent")
	}
	if c.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	// An expensive candidate evicts the LRU (entry 0).
	if !c.Put(entry(3, 5000)) {
		t.Fatal("expensive candidate rejected")
	}
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("entry 0 should have been evicted")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("entry 1 should survive")
	}
}

func TestDegradedNotAdmitted(t *testing.T) {
	c := New(Config{Capacity: 4, Shards: 1})
	e := entry(0, 10)
	e.Plan.Degraded = true
	e.Plan.DegradeReason = plan.DegradeCancelled
	if c.Put(e) {
		t.Fatal("degraded plan admitted")
	}
	ca := New(Config{Capacity: 4, Shards: 1, AdmitDegraded: true})
	if !ca.Put(e) {
		t.Fatal("AdmitDegraded cache refused degraded plan")
	}
}

func TestGetOrComputeFlow(t *testing.T) {
	c := New(Config{Capacity: 8, Shards: 2})
	ctx := context.Background()
	calls := 0
	compute := func(context.Context) (*Entry, error) {
		calls++
		return entry(7, 42), nil
	}
	e, hit, shared, err := c.GetOrCompute(ctx, key(7), compute)
	if err != nil || hit || shared || e == nil || e.BudgetUsed != 42 {
		t.Fatalf("first call: e=%v hit=%v shared=%v err=%v", e, hit, shared, err)
	}
	e, hit, _, err = c.GetOrCompute(ctx, key(7), compute)
	if err != nil || !hit || e == nil {
		t.Fatalf("second call: hit=%v err=%v", hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestGetOrComputeError(t *testing.T) {
	c := New(Config{Capacity: 8, Shards: 1})
	boom := errors.New("boom")
	_, _, _, err := c.GetOrCompute(context.Background(), key(1), func(context.Context) (*Entry, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Errors are not cached: the next call recomputes.
	e, hit, _, err := c.GetOrCompute(context.Background(), key(1), func(context.Context) (*Entry, error) {
		return entry(1, 5), nil
	})
	if err != nil || hit || e == nil {
		t.Fatalf("retry after error: e=%v hit=%v err=%v", e, hit, err)
	}
}

func TestGetOrComputePanicIsolated(t *testing.T) {
	c := New(Config{Capacity: 8, Shards: 1})
	_, _, _, err := c.GetOrCompute(context.Background(), key(2), func(context.Context) (*Entry, error) {
		panic("injected crash")
	})
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	// The flight must be cleared so the key is computable again.
	e, _, _, err := c.GetOrCompute(context.Background(), key(2), func(context.Context) (*Entry, error) {
		return entry(2, 5), nil
	})
	if err != nil || e == nil {
		t.Fatalf("key wedged after panic: %v", err)
	}
}

// TestWaiterHonorsOwnDeadline: a coalesced waiter with a short deadline
// must not wait for a slow flight.
func TestWaiterHonorsOwnDeadline(t *testing.T) {
	c := New(Config{Capacity: 8, Shards: 1})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer func() { recover() }() // test goroutine barrier (panicguard)
		defer close(leaderDone)
		_, _, _, _ = c.GetOrCompute(context.Background(), key(3), func(context.Context) (*Entry, error) {
			<-release
			return entry(3, 9), nil
		})
	}()
	// Wait until the flight is registered.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight never registered")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, shared, err := c.GetOrCompute(ctx, key(3), func(context.Context) (*Entry, error) {
		t.Error("waiter must not compute")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}
	if !shared {
		t.Fatal("waiter should have been coalesced")
	}
	if time.Since(start) > time.Second {
		t.Fatal("waiter did not honor its own deadline promptly")
	}
	close(release)
	<-leaderDone
	// The flight's result must still have been cached for future hits.
	if _, ok := c.Get(key(3)); !ok {
		t.Fatal("flight result was not cached after waiter timeout")
	}
}

// TestSingleflightStress hammers the cache from 32 goroutines with
// overlapping fingerprints and asserts exactly one compute per key and
// no lost deadlines. Run under -race in CI.
func TestSingleflightStress(t *testing.T) {
	const (
		goroutines = 32
		keys       = 8
		rounds     = 25
	)
	c := New(Config{Capacity: 256, Shards: 4})
	var computes [keys]atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("goroutine %d panicked: %v", g, r)
				}
				wg.Done()
			}()
			<-gate
			for r := 0; r < rounds; r++ {
				ki := (g + r) % keys
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				e, _, _, err := c.GetOrCompute(ctx, key(ki), func(context.Context) (*Entry, error) {
					computes[ki].Add(1)
					time.Sleep(time.Duration(ki%3) * time.Millisecond)
					return entry(ki, int64(100+ki)), nil
				})
				cancel()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if e == nil || e.Fingerprint != key(ki) {
					errs <- fmt.Errorf("goroutine %d round %d: wrong entry", g, r)
					return
				}
			}
		}(g)
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for ki := 0; ki < keys; ki++ {
		if n := computes[ki].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want exactly 1", ki, n)
		}
	}
	st := c.Stats()
	if st.Misses != keys {
		t.Errorf("misses = %d, want %d", st.Misses, keys)
	}
	if st.Hits+st.Coalesced+st.Misses != goroutines*rounds {
		t.Errorf("hits(%d)+coalesced(%d)+misses(%d) != %d requests",
			st.Hits, st.Coalesced, st.Misses, goroutines*rounds)
	}
}

// TestShardDistribution: hash-distributed fingerprints spread across
// shards (the shard selector reads the fingerprint's leading bytes,
// which for real keys — SHA-256 outputs — are uniform).
func TestShardDistribution(t *testing.T) {
	c := New(Config{Capacity: 4096, Shards: 8})
	for i := 0; i < 512; i++ {
		k := Key(sha256.Sum256([]byte{byte(i), byte(i >> 8)}))
		c.Put(&Entry{Fingerprint: k, Plan: &plan.Plan{}, BudgetUsed: 1})
	}
	st := c.Stats()
	for i, n := range st.Shards {
		if n == 0 {
			t.Errorf("shard %d received no entries", i)
		}
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c := New(Config{Capacity: 1024})
	k := key(5)
	c.Put(&Entry{Fingerprint: k, Plan: &plan.Plan{TotalCost: 1}, BudgetUsed: 100})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(k); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkGetOrComputeHit(b *testing.B) {
	c := New(Config{Capacity: 1024})
	k := key(6)
	ctx := context.Background()
	c.Put(&Entry{Fingerprint: k, Plan: &plan.Plan{TotalCost: 1}, BudgetUsed: 100})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, _, err := c.GetOrCompute(ctx, k, func(context.Context) (*Entry, error) {
			b.Fatal("must not compute")
			return nil, nil
		})
		if err != nil || !hit {
			b.Fatal("miss")
		}
	}
}

func tierEntry(i int, budget int64, tier uint8) *Entry {
	e := entry(i, budget)
	e.Tier = tier
	return e
}

func TestTierUpgradeOnlyReplacement(t *testing.T) {
	c := New(Config{Capacity: 8, Shards: 1})

	// Tier-1 in, Tier-2 upgrade replaces it.
	if !c.Put(tierEntry(1, 10, TierGreedy)) {
		t.Fatal("greedy entry not admitted")
	}
	up := tierEntry(1, 500, TierFull)
	up.Plan = &plan.Plan{TotalCost: 999}
	if !c.Put(up) {
		t.Fatal("tier upgrade not admitted")
	}
	got, ok := c.Get(key(1))
	if !ok || got.Tier != TierFull || got.Plan.TotalCost != 999 {
		t.Fatalf("upgrade did not land: %+v", got)
	}
	if got.BudgetUsed != 500 {
		t.Fatalf("upgraded BudgetUsed = %d, want 500", got.BudgetUsed)
	}

	// A late greedy insert (the singleflight race) must be refused and
	// counted, leaving the Tier-2 plan untouched.
	if c.Put(tierEntry(1, 10_000, TierGreedy)) {
		t.Fatal("greedy insert downgraded a Tier-2 entry")
	}
	got, _ = c.Get(key(1))
	if got.Tier != TierFull || got.Plan.TotalCost != 999 {
		t.Fatalf("Tier-2 entry clobbered by late greedy insert: %+v", got)
	}
	if st := c.Stats(); st.TierRejected != 1 {
		t.Fatalf("TierRejected = %d, want 1", st.TierRejected)
	}

	// Legacy untagged entries (Tier 0) rank as full: greedy must not
	// replace them either.
	if !c.Put(tierEntry(2, 50, 0)) {
		t.Fatal("legacy entry not admitted")
	}
	if c.Put(tierEntry(2, 50, TierGreedy)) {
		t.Fatal("greedy insert replaced a legacy (rank-full) entry")
	}

	// Upgrades keep the larger budget weight when the old entry's is
	// bigger (total search spent on the shape).
	if !c.Put(tierEntry(3, 700, TierGreedy)) {
		t.Fatal("greedy entry 3 not admitted")
	}
	if !c.Put(tierEntry(3, 40, TierFull)) {
		t.Fatal("upgrade of entry 3 not admitted")
	}
	got, _ = c.Get(key(3))
	if got.Tier != TierFull || got.BudgetUsed != 700 {
		t.Fatalf("upgrade lost budget weight: tier=%d budget=%d, want tier=%d budget=700", got.Tier, got.BudgetUsed, TierFull)
	}
}

func TestTierCounts(t *testing.T) {
	c := New(Config{Capacity: 16, Shards: 2})
	for i := 0; i < 3; i++ {
		c.Put(tierEntry(i, 10, TierGreedy))
	}
	c.Put(tierEntry(10, 10, TierFull))
	c.Put(tierEntry(11, 10, 0)) // legacy counts as full
	g, f := c.TierCounts()
	if g != 3 || f != 2 {
		t.Fatalf("TierCounts = (%d, %d), want (3, 2)", g, f)
	}
	// Upgrading one greedy entry shifts the composition.
	c.Put(tierEntry(0, 20, TierFull))
	g, f = c.TierCounts()
	if g != 2 || f != 3 {
		t.Fatalf("after upgrade TierCounts = (%d, %d), want (2, 3)", g, f)
	}
}

func TestTierRank(t *testing.T) {
	if TierRank(0) != TierFull {
		t.Fatal("zero tier must rank as full")
	}
	if TierRank(TierGreedy) != TierGreedy || TierRank(TierFull) != TierFull {
		t.Fatal("explicit tiers must rank as themselves")
	}
}

func TestEvictWhereTargetsExactlyMatchingKeys(t *testing.T) {
	c := New(Config{Capacity: 64, Shards: 4})
	for i := 0; i < 20; i++ {
		if !c.Put(entry(i, 10)) {
			t.Fatalf("entry %d not admitted", i)
		}
	}
	// Evict the even keys: the rebalancer's "arcs I no longer own"
	// predicate in miniature.
	n := c.EvictWhere(func(k Key) bool { return k[0]%2 == 0 })
	if n != 10 {
		t.Fatalf("EvictWhere removed %d, want 10", n)
	}
	for i := 0; i < 20; i++ {
		_, ok := c.Peek(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("entry %d present=%v, want %v", i, ok, want)
		}
	}
	st := c.Stats()
	if st.TargetedEvictions != 10 {
		t.Fatalf("targetedEvictions = %d, want 10", st.TargetedEvictions)
	}
	if st.Evictions != 0 {
		t.Fatalf("capacity evictions = %d: targeted eviction leaked into the capacity counter", st.Evictions)
	}
	if st.Entries != 10 {
		t.Fatalf("entries = %d, want 10", st.Entries)
	}
}

// TestEvictWhereSkipsInFlightKeys: a key with an in-flight
// singleflight computation is never evicted mid-flight — the predicate
// may claim it, but the eviction pass must leave it alone so waiters
// land on a consistent entry.
func TestEvictWhereSkipsInFlightKeys(t *testing.T) {
	c := New(Config{Capacity: 64, Shards: 1})
	c.Put(entry(1, 10))

	computing := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _, err := c.GetOrCompute(context.Background(), key(2), func(context.Context) (*Entry, error) {
			close(computing)
			<-release
			return entry(2, 10), nil
		})
		if err != nil {
			t.Errorf("GetOrCompute: %v", err)
		}
	}()
	<-computing

	// Predicate claims everything; only the settled entry may go.
	if n := c.EvictWhere(func(Key) bool { return true }); n != 1 {
		t.Fatalf("EvictWhere removed %d, want 1 (the settled entry only)", n)
	}
	close(release)
	<-done
	if _, ok := c.Peek(key(2)); !ok {
		t.Fatal("in-flight entry lost: eviction raced the singleflight")
	}
}

// TestWarmConcurrentWithLiveGets: Warm (bulk snapshot/arc ingest) must
// be safe against concurrent readers of the same keys — the cluster
// pushes arcs into serving nodes while traffic reads them.
func TestWarmConcurrentWithLiveGets(t *testing.T) {
	c := New(Config{Capacity: 4096, Shards: 8})
	const keys = 256
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key((i + g) % keys)
				if e, ok := c.Get(k); ok && e.Plan == nil {
					t.Error("Get observed a torn entry")
					return
				}
			}
		}(g)
	}
	for round := 0; round < 8; round++ {
		for i := 0; i < keys; i++ {
			c.Warm(entry(i, int64(10+round)))
		}
	}
	close(stop)
	wg.Wait()
	if st := c.Stats(); st.Entries != keys {
		t.Fatalf("entries = %d, want %d", st.Entries, keys)
	}
}

// lruOrder lists each shard's keys from most to least recently used.
func lruOrder(c *Cache) [][]Key {
	out := make([][]Key, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		for n := s.head.next; n != &s.head; n = n.next {
			out[i] = append(out[i], n.entry.Fingerprint)
		}
	}
	return out
}

// TestWarmAllMatchesSequentialWarm pins WarmAll to a loop of Warm:
// the same count, contents, per-shard LRU order, tier composition and
// counters, over input with duplicate keys across tiers, degraded and
// nil entries, and more distinct keys than a cost-aware cache holds.
func TestWarmAllMatchesSequentialWarm(t *testing.T) {
	const n = 3 * parallel.MinPerWorker
	entries := make([]*Entry, n)
	for i := range entries {
		k := i % 5000
		if i%4 == 3 {
			k = (i - 1) % 5000 // the previous key again, at another tier
		}
		switch {
		case i%101 == 0:
			continue // nil entry
		case i%103 == 0:
			entries[i] = &Entry{Fingerprint: key(k)} // no plan
			continue
		}
		e := tierEntry(k, int64(10+i%7), uint8(i%3))
		if i%37 == 0 {
			e.Plan.Degraded = true
		}
		entries[i] = e
	}
	cfg := Config{Capacity: 2048, Shards: 16, CostAware: true}
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			seq := New(cfg)
			wantWarmed := 0
			for _, e := range entries {
				if seq.Warm(e) {
					wantWarmed++
				}
			}
			par := New(cfg)
			var warmed int
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				if w := parallel.Workers(n); w < 2 {
					t.Fatalf("parallel.Workers(%d) = %d, want at least 2", n, w)
				}
				warmed = par.WarmAll(entries)
			}()
			if warmed != wantWarmed {
				t.Fatalf("WarmAll warmed %d, the Warm loop %d", warmed, wantWarmed)
			}
			if got, want := par.Stats(), seq.Stats(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Stats = %+v, want %+v", got, want)
			}
			if st := par.Stats(); st.Evictions == 0 || st.Rejected == 0 || st.TierRejected == 0 {
				t.Fatalf("input exercised too little: %+v", st)
			}
			g1, f1 := par.TierCounts()
			g2, f2 := seq.TierCounts()
			if g1 != g2 || f1 != f2 {
				t.Fatalf("TierCounts = %d/%d, want %d/%d", g1, f1, g2, f2)
			}
			got, want := par.Dump(), seq.Dump()
			if len(got) != len(want) {
				t.Fatalf("Dump holds %d entries, want %d", len(got), len(want))
			}
			for i := range want {
				if *got[i] != *want[i] {
					t.Fatalf("Dump entry %d = %+v, want %+v", i, *got[i], *want[i])
				}
			}
			if fmt.Sprint(lruOrder(par)) != fmt.Sprint(lruOrder(seq)) {
				t.Fatal("per-shard LRU order differs from the Warm loop's")
			}
		})
	}
}

// TestWarmAllSmallInputWarmsInline pins the below-threshold path: the
// same result as Warm, with no worker started.
func TestWarmAllSmallInputWarmsInline(t *testing.T) {
	c := New(Config{Capacity: 64, Shards: 4})
	entries := []*Entry{entry(1, 10), nil, entry(2, 10), entry(1, 20)}
	if got := c.WarmAll(entries); got != 3 {
		t.Fatalf("WarmAll = %d, want 3", got)
	}
	if st := c.Stats(); st.Warmed != 3 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// scanTierCounts is TierCounts by a full scan of every shard.
func scanTierCounts(c *Cache) (greedy, full int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, n := range s.items {
			if TierRank(n.entry.Tier) == TierGreedy {
				greedy++
			} else {
				full++
			}
		}
		s.mu.Unlock()
	}
	return greedy, full
}

// TestTierCountsMatchFullScan drives random mixes of every way an
// entry enters, changes tier or leaves — Put, Warm, WarmAll,
// GetOrCompute, tier upgrades and refused downgrades, cost-aware and
// doorkeeper refusals, capacity evictions and EvictWhere — and checks
// the kept counts against a full scan after each step.
func TestTierCountsMatchFullScan(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, costAware := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/costAware=%v", shards, costAware), func(t *testing.T) {
				c := New(Config{Capacity: 4 * shards, Shards: shards, CostAware: costAware})
				rng := rand.New(rand.NewSource(int64(shards)))
				random := func() *Entry {
					e := tierEntry(rng.Intn(12*shards), int64(1+rng.Intn(50)), uint8(rng.Intn(3)))
					e.Plan.Degraded = rng.Intn(10) == 0
					return e
				}
				for step := 0; step < 2000; step++ {
					switch op := rng.Intn(7); op {
					case 0, 1:
						c.Put(random())
					case 2:
						c.Warm(random())
					case 3:
						batch := make([]*Entry, rng.Intn(8))
						for i := range batch {
							batch[i] = random()
						}
						c.WarmAll(batch)
					case 4:
						e := random()
						if _, _, _, err := c.GetOrCompute(context.Background(), e.Fingerprint, func(context.Context) (*Entry, error) {
							return e, nil
						}); err != nil {
							t.Fatal(err)
						}
					case 5:
						mod := 2 + rng.Intn(5)
						c.EvictWhere(func(k Key) bool { return int(k[0])%mod == 0 })
					case 6:
						// Upgrade a resident greedy entry, or try a downgrade.
						i := rng.Intn(12 * shards)
						c.Put(tierEntry(i, int64(1+rng.Intn(50)), TierFull))
						c.Put(tierEntry(i, int64(1+rng.Intn(50)), TierGreedy))
					}
					g, f := c.TierCounts()
					wg, wf := scanTierCounts(c)
					if g != wg || f != wf {
						t.Fatalf("step %d: TierCounts = %d/%d, a full scan finds %d/%d", step, g, f, wg, wf)
					}
				}
				st := c.Stats()
				if st.Evictions == 0 || st.Rejected == 0 || st.TierRejected == 0 || st.TargetedEvictions == 0 {
					t.Fatalf("the mix exercised too little: %+v", st)
				}
				if costAware != (st.FirstMissRefused > 0) {
					t.Fatalf("costAware %v, but the doorkeeper refused %d first misses", costAware, st.FirstMissRefused)
				}
			})
		}
	}
}

// TestTierCountsConcurrent reads TierCounts while other goroutines
// insert, upgrade and evict; run it under -race.
func TestTierCountsConcurrent(t *testing.T) {
	c := New(Config{Capacity: 64, Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (w*500 + i) % 200
				c.Put(tierEntry(k, 10, TierGreedy))
				c.Put(tierEntry(k, 20, TierFull))
				if i%50 == 0 {
					c.EvictWhere(func(k Key) bool { return k[0]%3 == 0 })
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if g, f := c.TierCounts(); g < 0 || f < 0 || g+f > 64 {
			t.Fatalf("TierCounts = %d/%d in a 64-entry cache", g, f)
		}
	}
	g, f := c.TierCounts()
	if wg, wf := scanTierCounts(c); g != wg || f != wf {
		t.Fatalf("TierCounts = %d/%d, a full scan finds %d/%d", g, f, wg, wf)
	}
}

// TestWarmAllPresizesOnlyEmptyShards: WarmAll swaps an empty shard's
// map for a sized one and leaves a populated shard's map in place.
func TestWarmAllPresizesOnlyEmptyShards(t *testing.T) {
	c := New(Config{Capacity: 64, Shards: 2})
	resident := entry(0, 10)
	c.Put(resident)
	busy := c.shardIndex(resident.Fingerprint)
	before := reflect.ValueOf(c.shards[busy].items).UnsafePointer()
	var entries []*Entry
	for i := 1; i < 40; i++ {
		entries = append(entries, entry(i, 10))
	}
	if got := c.WarmAll(entries); got != len(entries) {
		t.Fatalf("WarmAll = %d, want %d", got, len(entries))
	}
	if after := reflect.ValueOf(c.shards[busy].items).UnsafePointer(); after != before {
		t.Fatal("WarmAll replaced the map of a shard holding entries")
	}
	if _, ok := c.Peek(resident.Fingerprint); !ok {
		t.Fatal("the resident entry is gone")
	}
}

// BenchmarkWarmAll1e5 warms 10^5 entries into an empty 131072-entry,
// 16-shard cache: restart-1e5's recovery shape.
func BenchmarkWarmAll1e5(b *testing.B) {
	entries := make([]*Entry, 100000)
	for i := range entries {
		entries[i] = entry(i, 10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(Config{Capacity: 131072})
		b.StartTimer()
		if n := c.WarmAll(entries); n != len(entries) {
			b.Fatalf("WarmAll = %d, want %d", n, len(entries))
		}
	}
}
