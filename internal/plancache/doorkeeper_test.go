package plancache

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"joinopt/internal/cost"
)

// missTier runs one GetOrCompute miss of key i whose flight produces an
// entry of the given weight and tier, and reports whether the cache
// kept it.
func missTier(t *testing.T, c *Cache, i int, weight int64, tier uint8) bool {
	t.Helper()
	e := tierEntry(i, weight, tier)
	got, hit, _, err := c.GetOrCompute(context.Background(), e.Fingerprint, func(context.Context) (*Entry, error) {
		return e, nil
	})
	if err != nil || hit || got != e {
		t.Fatalf("miss of key %d: entry %p (want %p) hit %v err %v", i, got, e, hit, err)
	}
	cur, ok := c.Peek(e.Fingerprint)
	return ok && cur == e
}

// fullCostAware returns a one-shard cost-aware cache of the given
// capacity, filled with Tier-2 entries of the given weight under keys
// 1000 and up.
func fullCostAware(t *testing.T, capacity int, weight int64) *Cache {
	t.Helper()
	c := New(Config{Capacity: capacity, Shards: 1, CostAware: true})
	for i := 0; i < capacity; i++ {
		if !c.Put(tierEntry(1000+i, weight, TierFull)) {
			t.Fatalf("resident %d refused", i)
		}
	}
	return c
}

// TestDoorkeeperAdmitsOnSecondMiss: a Tier-1 miss into a full
// cost-aware shard is refused on its key's first miss, counted in
// Rejected and FirstMissRefused, and fires no hook; the same key's
// second miss goes on to the cost rule, which admits it over a lighter
// victim, or refuses it, counted in Rejected alone, when every victim
// in the scan outweighs it.
func TestDoorkeeperAdmitsOnSecondMiss(t *testing.T) {
	c := fullCostAware(t, 2, 10)
	admits := 0
	c.SetHooks(Hooks{OnAdmit: func(*Entry) { admits++ }})

	if missTier(t, c, 1, 500, TierGreedy) {
		t.Fatal("first miss of key 1 admitted into a full shard")
	}
	if st := c.Stats(); st.Rejected != 1 || st.FirstMissRefused != 1 || st.Evictions != 0 || st.Entries != 2 {
		t.Fatalf("after the first miss: %+v", st)
	}
	if admits != 0 {
		t.Fatalf("OnAdmit fired %d times for a refused entry", admits)
	}

	if !missTier(t, c, 1, 500, TierGreedy) {
		t.Fatal("second miss of key 1 refused")
	}
	if st := c.Stats(); st.Rejected != 1 || st.FirstMissRefused != 1 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after the second miss: %+v", st)
	}
	if _, ok := c.Peek(key(1000)); ok {
		t.Fatal("the least recent resident was not the victim")
	}
	if admits != 1 {
		t.Fatalf("OnAdmit fired %d times, want 1", admits)
	}

	// Key 2 weighs less than both residents, key 1 at 500 and key 1001
	// at 10: its second miss is refused by the cost rule, not by the
	// doorkeeper.
	if missTier(t, c, 2, 5, TierGreedy) || missTier(t, c, 2, 5, TierGreedy) {
		t.Fatal("a light key entered a shard of heavier residents")
	}
	if st := c.Stats(); st.Rejected != 3 || st.FirstMissRefused != 2 {
		t.Fatalf("after key 2's two misses: rejected %d firstMissRefused %d, want 3 and 2", st.Rejected, st.FirstMissRefused)
	}
}

// TestDoorkeeperBypass: only a miss's Tier-1 entry headed for a full
// cost-aware shard meets the doorkeeper. A shard with room, a Tier-2 or
// untiered miss entry, a key that became resident during its flight,
// Put, Warm and WarmAll all admit on first sight as before, and none of
// them allocates the filter.
func TestDoorkeeperBypass(t *testing.T) {
	checkNoDoor := func(t *testing.T, c *Cache) {
		t.Helper()
		if st := c.Stats(); st.FirstMissRefused != 0 {
			t.Fatalf("FirstMissRefused = %d, want 0", st.FirstMissRefused)
		}
		for i := range c.shards {
			if c.shards[i].door.bits != nil {
				t.Fatalf("shard %d allocated its doorkeeper", i)
			}
		}
	}
	t.Run("shard with room", func(t *testing.T) {
		c := New(Config{Capacity: 2, Shards: 1, CostAware: true})
		if !missTier(t, c, 1, 10, TierGreedy) || !missTier(t, c, 2, 10, TierGreedy) {
			t.Fatal("a Tier-1 miss into a shard with room was refused")
		}
		checkNoDoor(t, c)
	})
	for _, tier := range []uint8{TierFull, 0} {
		t.Run(fmt.Sprintf("miss entry of tier %d", tier), func(t *testing.T) {
			c := fullCostAware(t, 2, 10)
			if !missTier(t, c, 1, 500, tier) {
				t.Fatal("the miss entry was refused on first sight")
			}
			checkNoDoor(t, c)
		})
	}
	t.Run("resident by the flight's end", func(t *testing.T) {
		c := fullCostAware(t, 2, 10)
		e := tierEntry(1, 500, TierGreedy)
		up := tierEntry(1, 500, TierFull)
		if _, _, _, err := c.GetOrCompute(context.Background(), e.Fingerprint, func(context.Context) (*Entry, error) {
			if !c.Put(up) { // the upgrade or a read-repair lands first
				t.Error("Put refused")
			}
			return e, nil
		}); err != nil {
			t.Fatal(err)
		}
		if cur, _ := c.Peek(e.Fingerprint); cur != up {
			t.Fatal("the resident Tier-2 entry did not survive the late Tier-1 insert")
		}
		if st := c.Stats(); st.TierRejected != 1 {
			t.Fatalf("TierRejected = %d, want 1", st.TierRejected)
		}
		checkNoDoor(t, c)
	})
	t.Run("Put", func(t *testing.T) {
		c := fullCostAware(t, 2, 10)
		if !c.Put(tierEntry(1, 500, TierGreedy)) {
			t.Fatal("Put refused a Tier-1 entry on first sight")
		}
		checkNoDoor(t, c)
	})
	t.Run("Warm", func(t *testing.T) {
		c := fullCostAware(t, 2, 10)
		if !c.Warm(tierEntry(1, 500, TierGreedy)) {
			t.Fatal("Warm refused a Tier-1 entry on first sight")
		}
		checkNoDoor(t, c)
	})
	t.Run("WarmAll", func(t *testing.T) {
		c := fullCostAware(t, 2, 10)
		if n := c.WarmAll([]*Entry{tierEntry(1, 500, TierGreedy), tierEntry(2, 500, TierGreedy)}); n != 2 {
			t.Fatalf("WarmAll admitted %d of 2 Tier-1 entries", n)
		}
		checkNoDoor(t, c)
	})
}

// TestDoorkeeperClearsAfterWindow: the filter forgets every key once
// it has recorded doorWindow keys per slot of shard capacity. Keys are
// recorded until the window is full, skipping any that the filter
// already reports as seen (a Bloom false positive, which the cost rule
// then refuses); the first recorded key is remembered until the window
// is full, and forgotten once one more key is recorded.
func TestDoorkeeperClearsAfterWindow(t *testing.T) {
	const capacity = 4
	c := fullCostAware(t, capacity, 1<<40) // residents too heavy to evict
	recorded := func() uint64 { return c.Stats().FirstMissRefused }

	missTier(t, c, 0, 10, TierGreedy)
	if recorded() != 1 {
		t.Fatal("key 0's first miss was not recorded")
	}
	next := 1
	recordOne := func() {
		t.Helper()
		for before := recorded(); recorded() == before; next++ {
			if missTier(t, c, next, 10, TierGreedy) {
				t.Fatalf("key %d entered a shard of heavier residents", next)
			}
		}
	}
	for recorded() < doorWindow*capacity {
		recordOne()
	}
	before := recorded()
	missTier(t, c, 0, 10, TierGreedy)
	if recorded() != before {
		t.Fatal("key 0 was forgotten before the window filled")
	}
	recordOne()
	before = recorded()
	missTier(t, c, 0, 10, TierGreedy)
	if recorded() != before+1 {
		t.Fatal("key 0 was still remembered after the window cleared")
	}
}

// TestNotCostAwareStaysLRU: without CostAware, a Tier-1 miss into a
// full shard evicts the least recent entry on its first miss, whatever
// the weights, and no doorkeeper is consulted.
func TestNotCostAwareStaysLRU(t *testing.T) {
	c := New(Config{Capacity: 2, Shards: 1})
	c.Put(tierEntry(1000, 1<<40, TierFull))
	c.Put(tierEntry(1001, 1<<40, TierFull))
	if !missTier(t, c, 1, 1, TierGreedy) {
		t.Fatal("a first miss was refused without CostAware")
	}
	if _, ok := c.Peek(key(1000)); ok {
		t.Fatal("the least recent entry was not evicted")
	}
	if st := c.Stats(); st.Rejected != 0 || st.FirstMissRefused != 0 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want one eviction and no refusal", st)
	}
	if c.shards[0].door.bits != nil {
		t.Fatal("the doorkeeper was allocated without CostAware")
	}
}

// TestDoorkeeperMissOverflowTrace replays a key trace shaped like the
// serving benchmark's miss-overflow workload against ljqd's cache
// policy: 16 shards of 256, cost-aware, 40% of requests for one-off
// keys and the rest Zipf (s = 1.1) over 8× the capacity, each key
// weighing cost.UnitsFor(9, joins) for 8-40 joins, the most popular
// keys warmed as Tier-2 entries. A miss's flight yields a Tier-1 entry;
// one the cache keeps is then upgraded in place, as ljqd's background
// upgrade does. One-off keys must enter a full shard only as Bloom
// false positives, and the hit ratio must reach 0.48 (it reads 0.52).
// Without the doorkeeper, the same trace reads a hit ratio of 0.44, and
// a fifth of the one-off keys that miss into a full shard enter it.
func TestDoorkeeperMissOverflowTrace(t *testing.T) {
	const (
		capacity = 4096
		pool     = 8 * capacity
		warmup   = 20000
		measured = 60000
	)
	rng := rand.New(rand.NewSource(7))
	weight := func() int64 { return cost.UnitsFor(9, 8+rng.Intn(33)) }
	weights := make([]int64, pool)
	for i := range weights {
		weights[i] = weight()
	}
	c := New(Config{Capacity: capacity, Shards: 16, CostAware: true})
	warm := make([]*Entry, capacity)
	for i := range warm {
		warm[i] = tierEntry(i, weights[i], TierFull)
	}
	c.WarmAll(warm)

	zipf := rand.NewZipf(rng, 1.1, 1, pool-1)
	fresh := pool
	var hits, oneOffFull, oneOffEntered int
	for r := 0; r < warmup+measured; r++ {
		id, w, oneOff := 0, int64(0), rng.Float64() < 0.4
		if oneOff {
			id, w = fresh, weight()
			fresh++
		} else {
			id = int(zipf.Uint64())
			w = weights[id]
		}
		k := key(id)
		s := c.shardOf(k)
		s.mu.Lock()
		full := len(s.items) >= c.perShard
		s.mu.Unlock()
		e := tierEntry(id, w, TierGreedy)
		got, hit, _, err := c.GetOrCompute(context.Background(), k, func(context.Context) (*Entry, error) {
			return e, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cur, kept := c.Peek(k)
		kept = kept && cur == e
		if !hit && kept {
			c.Put(tierEntry(id, w, TierFull)) // the upgrade
		}
		if r < warmup {
			continue
		}
		if hit {
			hits++
		} else if got != e {
			t.Fatalf("request %d: a miss served another entry", r)
		}
		if oneOff && full {
			oneOffFull++
			if kept {
				oneOffEntered++
			}
		}
	}
	ratio := float64(hits) / measured
	entered := float64(oneOffEntered) / float64(oneOffFull)
	t.Logf("hit ratio %.3f; %d of %d one-off misses into a full shard entered it (%.1f%%); %+v",
		ratio, oneOffEntered, oneOffFull, 100*entered, c.Stats())
	if oneOffFull < measured/4 {
		t.Fatalf("only %d one-off misses met a full shard", oneOffFull)
	}
	if entered > 0.10 {
		t.Errorf("%.1f%% of one-off misses into a full shard entered it, want at most 10%% (Bloom false positives)", 100*entered)
	}
	if ratio < 0.48 {
		t.Errorf("hit ratio %.3f, want at least 0.48", ratio)
	}
}

// TestDoorkeeperConcurrentMisses drives Tier-1 misses into full
// cost-aware shards from several goroutines at once, so the filters
// are read, recorded and cleared concurrently; run it under -race.
func TestDoorkeeperConcurrentMisses(t *testing.T) {
	const workers, perWorker = 4, 2000
	c := New(Config{Capacity: 8, Shards: 2, CostAware: true})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				e := tierEntry(rng.Intn(64), int64(1+rng.Intn(50)), TierGreedy)
				if _, _, _, err := c.GetOrCompute(context.Background(), e.Fingerprint, func(context.Context) (*Entry, error) {
					return e, nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses+st.Coalesced != workers*perWorker {
		t.Fatalf("hits+misses+coalesced = %d, want %d", st.Hits+st.Misses+st.Coalesced, workers*perWorker)
	}
	if st.FirstMissRefused == 0 || st.Rejected < st.FirstMissRefused || st.Evictions == 0 {
		t.Fatalf("the mix exercised too little: %+v", st)
	}
}
