package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/greedy"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/telemetry"
)

// tierOrchestrator implements the tiered planning ladder behind the
// cache's singleflight: a miss is answered immediately with a Tier-1
// greedy plan (microseconds, zero steady-state allocations), and the
// cached entry is upgraded asynchronously by the full anytime search,
// warm-started from the greedy order. The deterministic escalation
// rule (greedy.Escalate) sends absurd greedy plans straight to the
// synchronous full search instead.
//
// Interaction with the existing machinery, invariant by invariant:
//
//   - Singleflight: compute runs inside a cache flight, so concurrent
//     misses still coalesce onto one greedy run. compute schedules
//     nothing: once the flight has finished, its leader
//     (Server.computeEntry) calls upgradeIfKept, which schedules the
//     upgrade only if the cache stored the flight's Tier-1 entry.
//     Coalesced waiters never schedule. The upgrade does NOT run
//     inside the flight — it Puts its result directly, and the
//     plancache's upgrade-only replacement refuses any late Tier-1
//     insert after a Tier-2 plan landed.
//   - One canonical query: the flight relabels the requester's query
//     once, and greedy, an escalated search and the upgrade all read
//     that same value. None of them writes it, and the leader hands
//     it to the upgrade only once the flight is done with it.
//   - Admission: a Tier-1 entry weighs what keeping it will cost, the
//     budget its upgrade runs under (Server.searchUnits), so
//     cost-aware admission decides which greedy plans are worth
//     upgrading. Into a full shard, the cache's doorkeeper admits a
//     Tier-1 entry only on its shape's second miss, so a shape that
//     never recurs buys no upgrade, journal append or eviction. A
//     refused entry is still served to its requester but costs no
//     upgrade.
//   - Determinism: the upgrade is the synchronous path's search
//     (Server.search) over the canonical query, under the configured
//     seed and the same budget, warm-started from the greedy order —
//     the Tier-2 plan is a pure function of (fingerprint, seed,
//     budget), so same-seed runs serve byte-identical upgraded plans.
//   - Degradation: a degraded upgrade result (cancelled at drain,
//     strategy panic) is discarded, never cached — the Tier-1 plan
//     stays until a future full run succeeds.
//   - Capacity: upgrades are capped by their own small gate
//     (upgradeConcurrency), not the join-weighted limiter, so
//     background work never queues ahead of foreground requests.
type tierOrchestrator struct {
	srv *Server

	// gate caps concurrently-running upgrades; pending dedupes and
	// bounds scheduled ones.
	gate    chan struct{}
	mu      sync.Mutex
	pending map[fingerprint.Fingerprint]struct{}
	wg      sync.WaitGroup
	stopped bool
	ctx     context.Context
	cancel  context.CancelFunc

	tier1Served atomic.Uint64 // misses answered with a greedy plan
	escalations atomic.Uint64 // misses escalated to synchronous full search
	upStarted   atomic.Uint64
	upDone      atomic.Uint64
	upFailed    atomic.Uint64 // upgrade panicked or produced only a degraded plan
	upDropped   atomic.Uint64 // upgrades refused (backlog cap or shutdown)

	// ratioH observes greedyCost/finalCost per completed upgrade — the
	// serving-quality gap the fast path cost us while the upgrade ran.
	ratioH *telemetry.Histogram
}

// maxPendingUpgrades bounds the scheduled-upgrade backlog; beyond it
// new upgrades are dropped (the Tier-1 plan simply remains cached, and
// a later miss after eviction reschedules). upgradeConcurrency caps
// concurrently-running upgrades; queued ones wait without holding
// limiter capacity away from foreground requests.
const (
	maxPendingUpgrades = 1024
	upgradeConcurrency = 2
)

func newTierOrchestrator(s *Server) *tierOrchestrator {
	//ljqlint:allow ctxflow -- upgrades outlive any single request by design; StopUpgrades cancels this at drain
	ctx, cancel := context.WithCancel(context.Background())
	return &tierOrchestrator{
		srv:     s,
		gate:    make(chan struct{}, upgradeConcurrency),
		pending: make(map[fingerprint.Fingerprint]struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
}

func (t *tierOrchestrator) registerMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("ljq_tier1_served_total", "Cache misses answered immediately with a greedy (Tier-1) plan.", t.tier1Served.Load)
	reg.CounterFunc("ljq_tier_escalations_total", "Cache misses escalated past the greedy tier to the synchronous full search.", t.escalations.Load)
	reg.CounterFunc("ljq_tier_upgrades_started_total", "Background Tier-2 upgrades scheduled.", t.upStarted.Load)
	reg.CounterFunc("ljq_tier_upgrades_completed_total", "Background Tier-2 upgrades that landed in the cache.", t.upDone.Load)
	reg.CounterFunc("ljq_tier_upgrades_failed_total", "Background Tier-2 upgrades discarded (degraded result or panic).", t.upFailed.Load)
	reg.CounterFunc("ljq_tier_upgrades_dropped_total", "Background Tier-2 upgrades refused (backlog cap or shutdown).", t.upDropped.Load)
	reg.GaugeFunc("ljq_tier_pending_upgrades", "Upgrades scheduled but not yet finished.", func() float64 {
		return float64(t.pendingCount())
	})
	// Ratio 1 = greedy already optimal; the tail shows how much plan
	// quality the fast path trades for latency.
	t.ratioH = reg.Histogram("ljq_tier_cost_ratio",
		"Greedy plan cost / upgraded full-search plan cost, per completed upgrade.",
		telemetry.ExpBuckets(0.5, 2, 12))
}

func (t *tierOrchestrator) pendingCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

func (t *tierOrchestrator) fillStatus(ts *TierStatus) {
	ts.Enabled = true
	ts.PendingUpgrades = t.pendingCount()
	ts.Tier1Served = t.tier1Served.Load()
	ts.Escalations = t.escalations.Load()
	ts.UpgradesStarted = t.upStarted.Load()
	ts.UpgradesCompleted = t.upDone.Load()
	ts.UpgradesFailed = t.upFailed.Load()
	ts.UpgradesDropped = t.upDropped.Load()
}

// compute is the tiered cache-miss path, run inside the cache's
// singleflight. It answers with a greedy plan, weighted at its
// upgrade's budget, unless greedy.Escalate rejects that plan at
// greedy.DefaultThreshold; then it falls through to the synchronous
// full-search path. The upgrade is scheduled after admission, by
// upgradeIfKept.
func (t *tierOrchestrator) compute(ctx context.Context, fp fingerprint.Fingerprint, cq *catalog.Query) (*plancache.Entry, error) {
	res, err := t.greedyPlan(cq)
	if err == nil && !greedy.Escalate(res.TotalCost, greedy.DefaultThreshold) {
		t.tier1Served.Add(1)
		return &plancache.Entry{Fingerprint: fp, Plan: res.ToPlan(), BudgetUsed: t.srv.searchUnits(cq), Tier: plancache.TierGreedy}, nil
	}
	t.escalations.Add(1)
	return t.srv.optimize(ctx, fp, cq)
}

// greedyPlan builds and runs the Tier-1 planner behind a recover
// barrier: a crash in the greedy path must escalate the miss, not take
// down the flight. Per-miss planner construction allocates (CSR
// adjacency, scratch buffers) — that is the cold path; the zero-alloc
// contract is on Planner.Plan.
func (t *tierOrchestrator) greedyPlan(cq *catalog.Query) (res *greedy.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: greedy planner panicked: %v", r)
		}
	}()
	p, err := greedy.New(cq, t.srv.cfg.Model)
	if err != nil {
		return nil, err
	}
	return p.Plan(), nil
}

// upgradeIfKept schedules the background upgrade of e, the Tier-1
// entry a miss's flight just produced from the canonical query cq, if
// the cache still holds that very entry: an entry admission refused,
// or one already replaced or evicted, is never upgraded.
func (t *tierOrchestrator) upgradeIfKept(e *plancache.Entry, cq *catalog.Query) {
	if cur, ok := t.srv.cache.Peek(e.Fingerprint); !ok || cur != e {
		return
	}
	t.scheduleUpgrade(e.Fingerprint, cq, e.Plan.Order(), e.Plan.TotalCost)
}

// scheduleUpgrade queues a background Tier-2 upgrade for fp, deduping
// against one already pending and bounding the backlog. The upgrade
// takes ownership of cq.
func (t *tierOrchestrator) scheduleUpgrade(fp fingerprint.Fingerprint, cq *catalog.Query, incumbent plan.Perm, greedyCost float64) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		t.upDropped.Add(1)
		return
	}
	if _, dup := t.pending[fp]; dup {
		t.mu.Unlock()
		return
	}
	if len(t.pending) >= maxPendingUpgrades {
		t.mu.Unlock()
		t.upDropped.Add(1)
		return
	}
	t.pending[fp] = struct{}{}
	t.wg.Add(1)
	t.mu.Unlock()
	t.upStarted.Add(1)
	go t.upgrade(fp, cq, incumbent, greedyCost)
}

// upgrade runs the full anytime search for fp and, if the result is
// healthy, lands it in the cache; the plancache's upgrade-only
// replacement keeps any later Tier-1 insert of the shape (an arc push,
// a warm start) from displacing it.
func (t *tierOrchestrator) upgrade(fp fingerprint.Fingerprint, cq *catalog.Query, incumbent plan.Perm, greedyCost float64) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.pending, fp)
		t.mu.Unlock()
	}()
	defer func() {
		if r := recover(); r != nil {
			// The upgrade goroutine's panic barrier: a crash discards
			// this upgrade, the Tier-1 plan stays served.
			t.upFailed.Add(1)
		}
	}()

	select {
	case t.gate <- struct{}{}:
	case <-t.ctx.Done():
		t.upDropped.Add(1)
		return
	}
	defer func() { <-t.gate }()

	pl, used, _ := t.srv.search(t.ctx, cq, incumbent)
	if pl == nil || pl.Degraded {
		// Cancelled at drain, starved, or panicked: never replace a
		// healthy Tier-1 plan with a degraded Tier-2 one.
		t.upFailed.Add(1)
		return
	}
	t.srv.cache.Put(&plancache.Entry{Fingerprint: fp, Plan: pl, BudgetUsed: used, Tier: plancache.TierFull})
	t.upDone.Add(1)
	if t.ratioH != nil && !math.IsInf(greedyCost, 0) && !math.IsNaN(greedyCost) && pl.TotalCost > 0 {
		t.ratioH.Observe(greedyCost / pl.TotalCost)
	}
}

// stop refuses new upgrades, cancels running ones, and waits for the
// goroutines to exit.
func (t *tierOrchestrator) stop() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.stopped = true
	t.mu.Unlock()
	t.cancel()
	t.wg.Wait()
}

// StopUpgrades stops the background upgrade pipeline: new upgrades are
// refused, running ones are cancelled (their anytime runs return
// degraded incumbents, which are discarded) and waited for. Called by
// the daemon at drain, between connection shutdown and the final
// snapshot flush, so the flushed snapshot is stable. No-op untiered.
func (s *Server) StopUpgrades() {
	if s.tiers != nil {
		s.tiers.stop()
	}
}

// WaitUpgrades blocks until every scheduled background upgrade has
// finished, without stopping the pipeline. Deterministic tests use it
// to observe the upgraded cache state. No-op untiered.
func (s *Server) WaitUpgrades() {
	if s.tiers != nil {
		s.tiers.wg.Wait()
	}
}
