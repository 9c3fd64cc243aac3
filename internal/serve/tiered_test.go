package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/core"
	"joinopt/internal/cost"
	"joinopt/internal/fingerprint"
	"joinopt/internal/greedy"
	"joinopt/internal/plancache"
	"joinopt/internal/qfile"
	"joinopt/internal/telemetry"
	"joinopt/internal/workload"
)

// TestTieredColdMissServesGreedyThenUpgrades is the acceptance test of
// the tiered ladder: a cold miss is answered from the greedy tier
// (Tier 1 in the body, header and Explain), and once the background
// upgrade lands, the same query is a cache hit served from the full
// search (Tier 2) — with both responses byte-identical across
// same-seed runs.
func TestTieredColdMissServesGreedyThenUpgrades(t *testing.T) {
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	body := queryBody(t, q)

	run := func(t *testing.T) (cold, warm []byte) {
		s, ts := newTestServer(t, Config{Tiered: true})

		resp, or := postOptimize(t, ts.URL, body)
		if or.CacheHit {
			t.Fatal("cold request reported a cache hit")
		}
		if or.Tier != int(plancache.TierGreedy) {
			t.Fatalf("cold request served tier %d, want %d (greedy)", or.Tier, plancache.TierGreedy)
		}
		if got := resp.Header.Get("X-Plan-Tier"); got != "1" {
			t.Fatalf("cold X-Plan-Tier = %q, want \"1\"", got)
		}
		if !bytes.Contains([]byte(or.Explain), []byte("tier 1 (greedy fast path)")) {
			t.Fatalf("cold Explain missing tier line:\n%s", or.Explain)
		}
		if or.Degraded {
			t.Fatal("greedy plan flagged degraded")
		}
		if len(or.Order) != 21 {
			t.Fatalf("cold order covers %d relations, want 21", len(or.Order))
		}
		cold = []byte(or.Explain)

		// Deterministically wait for the background upgrade to land.
		s.WaitUpgrades()

		resp2, or2 := postOptimize(t, ts.URL, body)
		if !or2.CacheHit {
			t.Fatal("second request missed the cache")
		}
		if or2.Tier != int(plancache.TierFull) {
			t.Fatalf("post-upgrade request served tier %d, want %d (full)", or2.Tier, plancache.TierFull)
		}
		if got := resp2.Header.Get("X-Plan-Tier"); got != "2" {
			t.Fatalf("post-upgrade X-Plan-Tier = %q, want \"2\"", got)
		}
		if !bytes.Contains([]byte(or2.Explain), []byte("tier 2 (full anytime search)")) {
			t.Fatalf("post-upgrade Explain missing tier line:\n%s", or2.Explain)
		}
		if or2.Degraded {
			t.Fatal("upgraded plan flagged degraded")
		}
		// A Tier-1 entry weighs the budget reserved for its upgrade, and
		// the upgraded entry keeps the larger of that and what its
		// search spent.
		if want := cost.UnitsFor(s.cfg.TCoeff, 20); or.BudgetUsed != want {
			t.Fatalf("greedy BudgetUsed %d, want the upgrade budget %d", or.BudgetUsed, want)
		}
		if or2.BudgetUsed < or.BudgetUsed {
			t.Fatalf("upgraded BudgetUsed %d below the Tier-1 weight %d", or2.BudgetUsed, or.BudgetUsed)
		}

		g, f := s.Cache().TierCounts()
		if g != 0 || f != 1 {
			t.Fatalf("cache tier composition (%d, %d), want (0, 1) after upgrade", g, f)
		}
		return cold, []byte(or2.Explain)
	}

	cold1, warm1 := run(t)
	cold2, warm2 := run(t)
	if !bytes.Equal(cold1, cold2) {
		t.Fatalf("greedy-tier Explain differs across same-seed runs:\n%s\n---\n%s", cold1, cold2)
	}
	if !bytes.Equal(warm1, warm2) {
		t.Fatalf("upgraded Explain differs across same-seed runs:\n%s\n---\n%s", warm1, warm2)
	}
}

// TestTieredEscalation: a greedy plan priced at or past
// greedy.DefaultThreshold escalates, so the cold miss pays the
// synchronous full search, is served a finite Tier-2 plan, and no
// upgrade is scheduled. The query is a 4-relation chain of 1e8-row
// relations joined at selectivity 1: every join order costs at least
// 1e32, yet stays finite.
func TestTieredEscalation(t *testing.T) {
	s, ts := newTestServer(t, Config{Tiered: true})
	q := &catalog.Query{}
	for i := 0; i < 4; i++ {
		q.Relations = append(q.Relations, catalog.Relation{Name: fmt.Sprintf("R%d", i), Cardinality: 1e8})
	}
	for i := 0; i+1 < 4; i++ {
		q.Predicates = append(q.Predicates, catalog.Predicate{Left: catalog.RelID(i), Right: catalog.RelID(i + 1), Selectivity: 1})
	}
	_, order := fingerprint.Canonical(q)
	cq := fingerprint.Relabel(q, order)
	g, err := greedy.New(cq, s.cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	if c := g.Plan().TotalCost; !greedy.Escalate(c, greedy.DefaultThreshold) {
		t.Fatalf("greedy prices the chain at %g, below the escalation threshold %g", c, greedy.DefaultThreshold)
	}

	_, or := postOptimize(t, ts.URL, queryBody(t, q))
	if or.Tier != int(plancache.TierFull) {
		t.Fatalf("escalated miss served tier %d, want %d", or.Tier, plancache.TierFull)
	}
	if or.CacheHit {
		t.Fatal("cold request reported a cache hit")
	}
	if math.IsInf(or.TotalCost, 0) || math.IsNaN(or.TotalCost) {
		t.Fatalf("escalated miss served a non-finite plan cost %g", or.TotalCost)
	}
	checkValidOrder(t, or.Order, len(q.Relations))

	st := statusz(t, ts.URL)
	if !st.Tiers.Enabled {
		t.Fatal("statusz reports tiering disabled")
	}
	if st.Tiers.Escalations != 1 {
		t.Fatalf("escalations = %d, want 1", st.Tiers.Escalations)
	}
	if st.Tiers.Tier1Served != 0 || st.Tiers.UpgradesStarted != 0 {
		t.Fatalf("escalated miss leaked into the greedy pipeline: %+v", st.Tiers)
	}
	if st.Tiers.Tier1Entries != 0 || st.Tiers.Tier2Entries != 1 {
		t.Fatalf("tier composition (%d, %d), want (0, 1)", st.Tiers.Tier1Entries, st.Tiers.Tier2Entries)
	}
	s.WaitUpgrades() // no-op, but must not hang
}

// TestTieredBatch: batch items route through the tier orchestrator —
// all cold items come back Tier-1 with one compute per unique
// fingerprint, and the upgrades land per unique shape.
func TestTieredBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{Tiered: true})

	qa := workload.Default().Generate(8, rand.New(rand.NewSource(1)))
	qb := workload.Default().Generate(10, rand.New(rand.NewSource(2)))
	items := [][]byte{queryBody(t, qa), queryBody(t, qb), queryBody(t, qa)}

	var breq BatchRequest
	for _, it := range items {
		breq.Queries = append(breq.Queries, json.RawMessage(it))
	}
	buf, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/optimize/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var bresp BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(bresp.Results))
	}
	for i, r := range bresp.Results {
		if r.Error != "" || r.Plan == nil {
			t.Fatalf("item %d failed: %s", i, r.Error)
		}
		if r.Plan.Tier != int(plancache.TierGreedy) {
			t.Fatalf("cold batch item %d served tier %d, want %d", i, r.Plan.Tier, plancache.TierGreedy)
		}
	}

	s.WaitUpgrades()
	st := statusz(t, ts.URL)
	if st.Tiers.UpgradesStarted != 2 || st.Tiers.UpgradesCompleted != 2 {
		t.Fatalf("upgrades started/completed = %d/%d, want 2/2 (one per unique shape)",
			st.Tiers.UpgradesStarted, st.Tiers.UpgradesCompleted)
	}
	if st.Tiers.Tier1Entries != 0 || st.Tiers.Tier2Entries != 2 {
		t.Fatalf("tier composition (%d, %d), want (0, 2)", st.Tiers.Tier1Entries, st.Tiers.Tier2Entries)
	}
}

// TestTieredRefusedEntrySchedulesNoUpgrade: a Tier-1 entry that
// cost-aware admission refuses is still served, but its upgrade never
// runs, because the cache would not keep the result either. The first
// miss is refused by the doorkeeper, the second by the heavier
// resident; /statusz and /metrics tell the two apart.
func TestTieredRefusedEntrySchedulesNoUpgrade(t *testing.T) {
	cache := plancache.New(plancache.Config{Capacity: 1, Shards: 1, CostAware: true})
	s, ts := newTestServer(t, Config{Tiered: true, CacheHandle: cache, Metrics: telemetry.NewRegistry()})
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	heavy := residentEntry(t, workload.Default().Generate(8, rand.New(rand.NewSource(3))),
		2*cost.UnitsFor(s.cfg.TCoeff, 20))
	if !cache.Put(heavy) {
		t.Fatal("resident entry refused")
	}

	for miss, want := range []struct{ rejected, firstMiss uint64 }{{1, 1}, {2, 1}} {
		_, or := postOptimize(t, ts.URL, queryBody(t, q))
		if or.CacheHit || or.Tier != int(plancache.TierGreedy) {
			t.Fatalf("miss %d: cacheHit %v tier %d, want a tier-1 miss", miss+1, or.CacheHit, or.Tier)
		}
		checkValidOrder(t, or.Order, len(q.Relations))

		s.WaitUpgrades()
		st := statusz(t, ts.URL)
		if st.Tiers.Tier1Served != uint64(miss+1) || st.Tiers.UpgradesStarted != 0 {
			t.Fatalf("miss %d: tier1Served/upgradesStarted = %d/%d, want %d/0", miss+1, st.Tiers.Tier1Served, st.Tiers.UpgradesStarted, miss+1)
		}
		if st.Cache.Rejected != want.rejected || st.Cache.FirstMissRefused != want.firstMiss {
			t.Fatalf("miss %d: rejected/firstMissRefused = %d/%d, want %d/%d",
				miss+1, st.Cache.Rejected, st.Cache.FirstMissRefused, want.rejected, want.firstMiss)
		}
		if got, ok := cache.Peek(heavy.Fingerprint); !ok || got != heavy || cache.Len() != 1 {
			t.Fatalf("miss %d: resident entry changed: %+v (present %v, len %d)", miss+1, got, ok, cache.Len())
		}
	}
	text := metricsText(t, ts.URL)
	for _, series := range []string{"ljq_plancache_rejected_total 2", "ljq_plancache_first_miss_refused_total 1"} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// TestTieredAdmittedEntryUpgradesOnce: a Tier-1 entry whose shape has
// not missed before is served but kept out of a full cost-aware shard,
// so it costs no upgrade. On the shape's second miss, weighted at its
// upgrade's budget, it displaces a lighter least-recent Tier-2 entry
// (at its greedy work it could not), its one upgrade lands, and the
// next request is a Tier-2 hit.
func TestTieredAdmittedEntryUpgradesOnce(t *testing.T) {
	cache := plancache.New(plancache.Config{Capacity: 1, Shards: 1, CostAware: true})
	s, ts := newTestServer(t, Config{Tiered: true, CacheHandle: cache})
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	body := queryBody(t, q)
	weight := cost.UnitsFor(s.cfg.TCoeff, 20)

	_, order := fingerprint.Canonical(q)
	cq := fingerprint.Relabel(q, order)
	g, err := greedy.New(cq, s.cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	light := residentEntry(t, workload.Default().Generate(8, rand.New(rand.NewSource(3))), weight-1)
	if work := g.Plan().Work; work >= light.BudgetUsed {
		t.Fatalf("greedy work %d already outweighs the resident's %d; the test needs a heavier resident", work, light.BudgetUsed)
	}
	if !cache.Put(light) {
		t.Fatal("resident entry refused")
	}

	_, or := postOptimize(t, ts.URL, body)
	if or.CacheHit || or.Tier != int(plancache.TierGreedy) {
		t.Fatalf("first miss: cacheHit %v tier %d, want a tier-1 miss", or.CacheHit, or.Tier)
	}
	if or.BudgetUsed != weight {
		t.Fatalf("tier-1 BudgetUsed %d, want the upgrade budget %d", or.BudgetUsed, weight)
	}
	s.WaitUpgrades()
	st := statusz(t, ts.URL)
	if st.Tiers.UpgradesStarted != 0 || st.Cache.FirstMissRefused != 1 {
		t.Fatalf("first miss: upgradesStarted/firstMissRefused = %d/%d, want 0/1", st.Tiers.UpgradesStarted, st.Cache.FirstMissRefused)
	}
	if got, ok := cache.Peek(light.Fingerprint); !ok || got != light {
		t.Fatal("the first miss displaced the resident entry")
	}

	_, or = postOptimize(t, ts.URL, body)
	if or.CacheHit || or.Tier != int(plancache.TierGreedy) || or.BudgetUsed != weight {
		t.Fatalf("second miss: cacheHit %v tier %d budgetUsed %d, want a tier-1 miss at %d", or.CacheHit, or.Tier, or.BudgetUsed, weight)
	}
	if _, ok := cache.Peek(light.Fingerprint); ok {
		t.Fatal("the lighter resident entry was not displaced")
	}
	s.WaitUpgrades()
	st = statusz(t, ts.URL)
	if st.Tiers.UpgradesStarted != 1 || st.Tiers.UpgradesCompleted != 1 {
		t.Fatalf("upgrades started/completed = %d/%d, want 1/1", st.Tiers.UpgradesStarted, st.Tiers.UpgradesCompleted)
	}
	if st.Cache.Evictions != 1 || st.Cache.Rejected != 1 || st.Cache.FirstMissRefused != 1 {
		t.Fatalf("evictions/rejected/firstMissRefused = %d/%d/%d, want 1/1/1", st.Cache.Evictions, st.Cache.Rejected, st.Cache.FirstMissRefused)
	}

	_, or = postOptimize(t, ts.URL, body)
	if !or.CacheHit || or.Tier != int(plancache.TierFull) {
		t.Fatalf("after the upgrade: cacheHit %v tier %d, want a tier-2 hit", or.CacheHit, or.Tier)
	}
}

// TestTieredNotCostAwareAdmitsFirstMiss: without cost-aware admission
// (ljqd -cache-cost-aware=false) there is no doorkeeper: a shape's
// first miss evicts the least recent entry, however heavy, and is
// upgraded once.
func TestTieredNotCostAwareAdmitsFirstMiss(t *testing.T) {
	cache := plancache.New(plancache.Config{Capacity: 1, Shards: 1})
	s, ts := newTestServer(t, Config{Tiered: true, CacheHandle: cache})
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	heavy := residentEntry(t, workload.Default().Generate(8, rand.New(rand.NewSource(3))), 1<<40)
	if !cache.Put(heavy) {
		t.Fatal("resident entry refused")
	}

	_, or := postOptimize(t, ts.URL, queryBody(t, q))
	if or.CacheHit || or.Tier != int(plancache.TierGreedy) {
		t.Fatalf("cold miss: cacheHit %v tier %d, want a tier-1 miss", or.CacheHit, or.Tier)
	}
	if _, ok := cache.Peek(heavy.Fingerprint); ok {
		t.Fatal("the least recent entry was not evicted")
	}
	s.WaitUpgrades()
	st := statusz(t, ts.URL)
	if st.Tiers.UpgradesStarted != 1 || st.Tiers.UpgradesCompleted != 1 {
		t.Fatalf("upgrades started/completed = %d/%d, want 1/1", st.Tiers.UpgradesStarted, st.Tiers.UpgradesCompleted)
	}
	if st.Cache.Rejected != 0 || st.Cache.FirstMissRefused != 0 {
		t.Fatalf("rejected/firstMissRefused = %d/%d, want 0/0", st.Cache.Rejected, st.Cache.FirstMissRefused)
	}
}

// TestTieredConcurrentMissesScheduleOneUpgrade: concurrent requests
// for one cold shape share one flight, and only its leader schedules
// the upgrade; coalesced waiters and later hits never do.
func TestTieredConcurrentMissesScheduleOneUpgrade(t *testing.T) {
	s, ts := newTestServer(t, Config{Tiered: true})
	q := workload.Default().Generate(25, rand.New(rand.NewSource(5)))

	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(q *catalog.Query) {
			defer wg.Done()
			resp, err := s.OptimizeQuery(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			if len(resp.Order) != len(q.Relations) {
				t.Errorf("order covers %d relations, want %d", len(resp.Order), len(q.Relations))
			}
		}(q.Clone())
	}
	wg.Wait()
	s.WaitUpgrades()

	st := statusz(t, ts.URL)
	if st.Cache.Misses != 1 || st.Tiers.Tier1Served != 1 {
		t.Fatalf("misses/tier1Served = %d/%d, want 1/1", st.Cache.Misses, st.Tiers.Tier1Served)
	}
	if st.Tiers.UpgradesStarted != 1 || st.Tiers.UpgradesCompleted != 1 {
		t.Fatalf("upgrades started/completed = %d/%d, want 1/1", st.Tiers.UpgradesStarted, st.Tiers.UpgradesCompleted)
	}
}

// TestTieredUpgradeObservesBudgetHistogram: a background upgrade is an
// optimizer run, so ljq_optimize_budget_used_units sees what it spent.
func TestTieredUpgradeObservesBudgetHistogram(t *testing.T) {
	s, ts := newTestServer(t, Config{Tiered: true, Metrics: telemetry.NewRegistry()})
	q := workload.Default().Generate(12, rand.New(rand.NewSource(7)))
	if _, or := postOptimize(t, ts.URL, queryBody(t, q)); or.Tier != int(plancache.TierGreedy) {
		t.Fatalf("cold miss served tier %d, want %d", or.Tier, plancache.TierGreedy)
	}
	s.WaitUpgrades()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"ljq_tier_upgrades_completed_total 1",
		"ljq_optimize_budget_used_units_count 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Errorf("/metrics missing %q\n----\n%s", series, buf.String())
		}
	}
}

// TestTieredCostRatioNeverBelowOne: Tier 1 prices with the estimator
// the full search uses, and an upgrade starts from the greedy order and
// never returns anything worse, so on connected queries every
// ljq_tier_cost_ratio observation (greedy cost ÷ upgraded cost) is at
// least 1. The test swaps in a histogram whose only finite bucket ends
// just below 1, so that bucket counts exactly the observations under 1.
func TestTieredCostRatioNeverBelowOne(t *testing.T) {
	s, ts := newTestServer(t, Config{Tiered: true})
	reg := telemetry.NewRegistry()
	s.tiers.ratioH = reg.Histogram("ratio", "", []float64{math.Nextafter(1, 0)})

	var shapes int
	for _, n := range []int{8, 12, 16, 20, 25, 30} {
		for seed := int64(1); seed <= 3; seed++ {
			q := workload.Default().Generate(n, rand.New(rand.NewSource(seed)))
			if _, or := postOptimize(t, ts.URL, queryBody(t, q)); or.Tier != int(plancache.TierGreedy) {
				t.Fatalf("n=%d seed=%d: cold miss served tier %d, want %d", n, seed, or.Tier, plancache.TierGreedy)
			}
			shapes++
		}
	}
	s.WaitUpgrades()

	if got := s.tiers.upDone.Load(); got != uint64(shapes) {
		t.Fatalf("%d upgrades completed, want %d", got, shapes)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"ratio_bucket{le=\"0.9999999999999999\"} 0\n",
		fmt.Sprintf("ratio_count %d\n", shapes),
	} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Errorf("ratio histogram missing %q\n----\n%s", series, buf.String())
		}
	}
}

// TestUntieredStatuszTierComposition: without tiering, /statusz still
// reports the cache's tier composition (full-search entries), with the
// pipeline marked disabled.
func TestUntieredStatuszTierComposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := workload.Default().Generate(6, rand.New(rand.NewSource(5)))
	_, or := postOptimize(t, ts.URL, queryBody(t, q))
	if or.Tier != int(plancache.TierFull) {
		t.Fatalf("untiered response tier %d, want %d", or.Tier, plancache.TierFull)
	}
	st := statusz(t, ts.URL)
	if st.Tiers.Enabled {
		t.Fatal("statusz reports tiering enabled on an untiered server")
	}
	if st.Tiers.Tier1Entries != 0 || st.Tiers.Tier2Entries != 1 {
		t.Fatalf("tier composition (%d, %d), want (0, 1)", st.Tiers.Tier1Entries, st.Tiers.Tier2Entries)
	}
}

// statusz fetches and decodes GET /statusz.
func statusz(t *testing.T, base string) StatusResponse {
	t.Helper()
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// metricsText fetches GET /metrics.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// BenchmarkOptimizeTieredMiss prices a tiered cold miss of the 20-join
// smoke query end to end, together with the background upgrade it
// schedules, if any: WaitUpgrades runs inside the timed region. The
// upgrade searches with IAI, as ljqd's does. Each op starts from a
// fresh server. admitted misses into an empty cost-aware
// cache; refused misses into a full one-entry shard, where the
// doorkeeper refuses the Tier-1 entry on its shape's first miss (the
// resident also outweighs it), so no upgrade runs.
func BenchmarkOptimizeTieredMiss(b *testing.B) {
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	var buf bytes.Buffer
	if err := qfile.Write(&buf, q); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	heavy := residentEntry(b, workload.Default().Generate(8, rand.New(rand.NewSource(3))), 1<<40)
	for _, bc := range []struct {
		name     string
		resident *plancache.Entry
	}{{"admitted", nil}, {"refused", heavy}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cache := plancache.New(plancache.Config{Capacity: 1, Shards: 1, CostAware: true})
				if bc.resident != nil && !cache.Put(bc.resident) {
					b.Fatal("resident entry refused")
				}
				s := New(Config{Method: core.IAI, Tiered: true, CacheHandle: cache})
				h := s.Handler()
				b.StartTimer()
				req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				s.WaitUpgrades()
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}

// residentEntry builds a Tier-2 entry for q's canonical shape, weighted
// at weight, to occupy a cache slot.
func residentEntry(tb testing.TB, q *catalog.Query, weight int64) *plancache.Entry {
	tb.Helper()
	fp, order := fingerprint.Canonical(q)
	cq := fingerprint.Relabel(q, order)
	g, err := greedy.New(cq, cost.NewMemoryModel())
	if err != nil {
		tb.Fatal(err)
	}
	return &plancache.Entry{Fingerprint: fp, Plan: g.Plan().ToPlan(), BudgetUsed: weight, Tier: plancache.TierFull}
}

// checkValidOrder fails unless order is a permutation of 0..n-1.
func checkValidOrder(t *testing.T, order []int, n int) {
	t.Helper()
	seen := make([]bool, n)
	for _, r := range order {
		if r < 0 || r >= n || seen[r] {
			t.Fatalf("order %v is not a permutation of %d relations", order, n)
		}
		seen[r] = true
	}
	if len(order) != n {
		t.Fatalf("order covers %d relations, want %d", len(order), n)
	}
}
