// Package serve is the optimizer-as-a-service layer: an HTTP handler
// that accepts queries (JSON interchange format or the textual DSL),
// fingerprints them canonically (internal/fingerprint), consults the
// sharded plan cache (internal/plancache), and on a miss runs the
// anytime optimizer (core.Optimizer.RunContext) under a per-request
// deadline and a server-wide weighted concurrency limiter.
//
// Contract, request by request:
//
//   - POST /optimize: the body (size-capped; oversized bodies get 413)
//     is parsed, canonicalized and fingerprinted. A cache hit returns
//     immediately. A miss acquires join-weighted capacity from the
//     limiter — queueing with a ctx-aware acquire, shedding with
//     503 + Retry-After when the queue deadline passes — and runs the
//     optimizer on the *canonical* relabeling of the query, so the
//     resulting plan (and the cached entry) is a pure function of
//     (fingerprint, seed, budget). Concurrent duplicate requests
//     coalesce onto one optimizer run via the cache's singleflight
//     layer; coalesced waiters still honor their own deadlines.
//     Responses carry the anytime contract (degraded, degradeReason,
//     budgetUsed) plus cacheHit, coalesced, and the fingerprint.
//   - GET /statusz: cache stats, in-flight counts, limiter occupancy,
//     durability counters and uptime as JSON.
//   - GET /healthz, /livez: 200 ok (load-balancer liveness: the
//     process is up and serving HTTP).
//   - GET /readyz: readiness. 503 while the readiness latch is down
//     (SetReady) and for a short window after the limiter sheds a
//     request — an overloaded or draining daemon should stop receiving
//     new traffic without being killed. cmd/ljqd opens its listener
//     only after recovery and warm start, so during startup every
//     probe is refused; it lowers the latch when a drain begins.
//
// Durability: with Config.Persist set, every admitted plan is
// journaled through internal/persist and the cache is snapshotted
// periodically and at drain (Flush), so a restart serves byte-identical
// plans for previously cached fingerprints instead of triggering a
// cold re-optimization storm.
//
// Graceful shutdown is the daemon's job (RunDaemon / cmd/ljqd drains
// in-flight work via http.Server.Shutdown, then flushes a final
// snapshot); the handler itself is stateless between requests apart
// from the cache.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/analysis/invariant"
	"joinopt/internal/catalog"
	"joinopt/internal/core"
	"joinopt/internal/cost"
	"joinopt/internal/fingerprint"
	"joinopt/internal/persist"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/qdsl"
	"joinopt/internal/qfile"
	"joinopt/internal/telemetry"
	"joinopt/internal/wire"
)

// Config tunes a Server. The zero value selects production-ish
// defaults (II, memory model, t=9, 1 MiB bodies, 256 join-units of
// concurrency, 1s queue deadline, 30s request deadline).
type Config struct {
	// Method is the optimization strategy. The zero value is core.II;
	// ljqd's -method flag defaults to IAI, the paper's overall winner.
	Method core.Method
	// Model prices joins (default the memory model). Models must be
	// stateless/goroutine-safe, as the stock ones are.
	Model cost.Model
	// TCoeff is the budget coefficient: each optimization gets
	// t·N²·UnitScale work units (default 9, the paper's convergence
	// point).
	TCoeff float64
	// Seed seeds each optimization. Together with canonical-form
	// optimization it makes the served plan a deterministic function
	// of the fingerprint (default 1).
	Seed int64
	// MaxBodyBytes caps request bodies; oversized requests get 413
	// (default 1 MiB).
	MaxBodyBytes int64
	// MaxInFlightJoins is the limiter capacity in join units: the sum
	// of join counts of concurrently-optimizing requests (default 256).
	MaxInFlightJoins int64
	// QueueTimeout bounds how long a request may wait for limiter
	// capacity before being shed with 503 (default 1s).
	QueueTimeout time.Duration
	// RequestTimeout bounds one synchronous full search, the queue
	// wait for limiter capacity included; the anytime optimizer returns
	// its incumbent (flagged degraded) at the deadline (default 30s).
	// A hit or a Tier-1 greedy answer never waits, so it arms none.
	RequestTimeout time.Duration
	// Cache configures the plan cache; ignored if CacheHandle is set.
	Cache plancache.Config
	// CacheHandle injects a prebuilt cache (shared across servers, or
	// instrumented in tests).
	CacheHandle *plancache.Cache
	// Metrics, if non-nil, receives the server's and cache's counters
	// and a budget-consumption histogram, and enables the GET /metrics
	// endpoint (Prometheus text exposition). nil disables both — the
	// hot path then carries no metrics overhead beyond the existing
	// atomics.
	Metrics *telemetry.Registry
	// Persist, if non-nil, is the durability manager bound to the
	// cache (internal/persist): its recovery and journal counters are
	// exposed on /statusz and /metrics, and Flush snapshots through it
	// at drain. The manager must be bound to the same cache passed via
	// CacheHandle.
	Persist *persist.Manager
	// ReadinessShedWindow is how long /readyz keeps answering 503
	// after the limiter sheds a request (default 5s; load balancers
	// should back off an overloaded daemon rather than pile on).
	ReadinessShedWindow time.Duration
	// MaxBatchItems caps how many queries one POST /optimize/batch may
	// carry (default 64). The cap bounds the fan-out a single request
	// can demand from the limiter, not the response size: each unique
	// shape in the batch still queues for join-weighted capacity.
	MaxBatchItems int
	// Tiered enables the tiered planning ladder: a cache miss is served
	// immediately from the Tier-1 greedy planner (internal/greedy) and,
	// if the cache admits the entry, it is upgraded in the background by
	// the full anytime search, warm-started from the greedy order. Off
	// by default: the zero Config keeps the classic synchronous
	// full-search path.
	Tiered bool
	// ArcPushMaxBytes caps one POST /snapshot/arc payload (default
	// 64 MiB, matching the warm-start fetch cap): a confused pusher
	// must not balloon this peer's memory.
	ArcPushMaxBytes int64
}

func (c *Config) fill() {
	if c.Model == nil {
		c.Model = cost.NewMemoryModel()
	}
	if c.TCoeff <= 0 {
		c.TCoeff = 9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxInFlightJoins <= 0 {
		c.MaxInFlightJoins = 256
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ReadinessShedWindow <= 0 {
		c.ReadinessShedWindow = 5 * time.Second
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.ArcPushMaxBytes <= 0 {
		c.ArcPushMaxBytes = 64 << 20
	}
}

// errShed marks a request dropped by the limiter's queue deadline.
var errShed = errors.New("serve: optimization capacity exhausted")

// Server is the optimizer service. Create with New; serve via Handler.
type Server struct {
	cfg     Config
	cache   *plancache.Cache
	sem     *semaphore
	start   time.Time
	persist *persist.Manager  // nil when persistence is off
	tiers   *tierOrchestrator // nil when Config.Tiered is off

	inFlight  atomic.Int64  // HTTP requests inside /optimize
	optimizes atomic.Uint64 // optimizer runs started (cache misses that won capacity)
	shed      atomic.Uint64 // 503s issued by the limiter
	batches   atomic.Uint64 // POST /optimize/batch requests accepted
	snapships atomic.Uint64 // GET /snapshot payloads served (warm-start donations)

	arcPushes    atomic.Uint64 // POST /snapshot/arc payloads accepted
	arcEntries   atomic.Uint64 // entries warmed from accepted arc pushes
	arcRejected  atomic.Uint64 // arc pushes refused (bad method/payload/size)
	arcPushBytes atomic.Uint64 // payload bytes accepted via /snapshot/arc

	// notReady is the readiness latch: set while the server should
	// take no new traffic (RunDaemon sets it when a drain begins).
	// Inverted so the zero value of Server-built-by-New is "ready".
	notReady atomic.Bool
	// lastShedNano is the wall-clock of the most recent limiter shed;
	// /readyz answers 503 within ReadinessShedWindow of it.
	lastShedNano atomic.Int64

	metrics     *telemetry.Registry
	budgetUsedH *telemetry.Histogram // work units consumed per search: synchronous runs and upgrades
}

// New builds a server.
func New(cfg Config) *Server {
	cfg.fill()
	cache := cfg.CacheHandle
	if cache == nil {
		cache = plancache.New(cfg.Cache)
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		sem:     newSemaphore(cfg.MaxInFlightJoins),
		persist: cfg.Persist,
		//ljqlint:allow detrand -- serving-layer uptime bookkeeping; the seeded optimizer trajectory never observes it
		start: time.Now(),
	}
	if cfg.Tiered {
		s.tiers = newTierOrchestrator(s)
	}
	if reg := cfg.Metrics; reg != nil {
		s.metrics = reg
		reg.CounterFunc("ljq_optimizations_total", "Optimizer runs started (cache misses that won limiter capacity).", s.optimizes.Load)
		reg.CounterFunc("ljq_shed_total", "Requests shed with 503 by the concurrency limiter.", s.shed.Load)
		reg.CounterFunc("ljq_batch_requests_total", "Accepted POST /optimize/batch requests.", s.batches.Load)
		reg.CounterFunc("ljq_snapshot_served_total", "Warm-start snapshots served from GET /snapshot.", s.snapships.Load)
		reg.CounterFunc("ljq_arc_push_received_total", "Accepted POST /snapshot/arc payloads (ring-rebalance plan shipments).", s.arcPushes.Load)
		reg.CounterFunc("ljq_arc_push_entries_total", "Plan entries warmed from accepted arc pushes.", s.arcEntries.Load)
		reg.CounterFunc("ljq_arc_push_rejected_total", "Arc pushes refused (bad method, oversized or undecodable payload).", s.arcRejected.Load)
		reg.CounterFunc("ljq_arc_push_bytes_total", "Payload bytes accepted via POST /snapshot/arc.", s.arcPushBytes.Load)
		reg.GaugeFunc("ljq_inflight_requests", "HTTP requests currently inside /optimize.", func() float64 {
			return float64(s.inFlight.Load())
		})
		reg.GaugeFunc("ljq_inflight_joins", "Join-weighted limiter units currently held.", func() float64 {
			return float64(s.sem.InUse())
		})
		reg.GaugeFunc("ljq_queued_requests", "Requests queued for limiter capacity.", func() float64 {
			return float64(s.sem.Waiting())
		})
		reg.GaugeFunc("ljq_capacity_joins", "Limiter capacity in join units.", func() float64 {
			return float64(s.sem.Capacity())
		})
		// Budget units scale as t·N²·UnitScale, so exponential buckets
		// spanning a 3-relation toy query (~400 units at t=9) up to a
		// 100-relation monster (~4.5M) cover the service envelope.
		s.budgetUsedH = reg.Histogram("ljq_optimize_budget_used_units",
			"Work units consumed per optimizer run, synchronous misses and background Tier-2 upgrades alike.",
			telemetry.ExpBuckets(256, 4, 10))
		cache.RegisterMetrics(reg, "ljq_plancache")
		if s.persist != nil {
			s.persist.RegisterMetrics(reg, "ljq_persist")
		}
		if s.tiers != nil {
			s.tiers.registerMetrics(reg)
		}
	}
	return s
}

// Cache exposes the plan cache (tests, expvar wiring).
func (s *Server) Cache() *plancache.Cache { return s.cache }

// SetReady flips the readiness latch: /readyz answers 503 while it is
// false. RunDaemon sets it false when a drain begins; an embedder that
// serves before its own startup work is done can hold it false
// meanwhile. Liveness (/healthz, /livez) is unaffected.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Flush writes a compacting snapshot of the cache through the
// persistence manager. No-op (nil) when persistence is off. Called by
// the daemon at drain time, after in-flight requests finish.
func (s *Server) Flush() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.Flush()
}

// Handler returns the HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/optimize/batch", s.handleOptimizeBatch)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/snapshot/arc", s.handleSnapshotArc)
	mux.HandleFunc("/statusz", s.handleStatusz)
	// Liveness: the process is up. Kept on /healthz for compatibility
	// with pre-split deployments; /livez is the modern spelling.
	mux.HandleFunc("/healthz", s.handleLiveness)
	mux.HandleFunc("/livez", s.handleLiveness)
	// Readiness: the process should receive traffic.
	mux.HandleFunc("/readyz", s.handleReadiness)
	if s.metrics != nil {
		mux.HandleFunc("/metrics", s.handleMetrics)
	}
	return mux
}

func (s *Server) handleLiveness(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadiness answers 503 while the daemon should not receive new
// traffic: the readiness latch is down (a drain has begun), or the
// limiter shed a request within ReadinessShedWindow (an overloaded
// daemon wants less traffic, not a restart — that distinction is the
// point of the liveness/readiness split).
func (s *Server) handleReadiness(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.notReady.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	if last := s.lastShedNano.Load(); last != 0 {
		//ljqlint:allow detrand -- readiness wall-clock window, outside any seeded trajectory
		since := time.Duration(time.Now().UnixNano() - last)
		if since < s.cfg.ReadinessShedWindow {
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.ReadinessShedWindow-since))
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "shedding: limiter at capacity")
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the registry in Prometheus text exposition
// format. Only routed when Config.Metrics is set.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Write errors mean the scraper went away mid-response.
	_ = s.metrics.WritePrometheus(w)
}

// OptimizeResponse is the JSON body of a successful POST /optimize.
type OptimizeResponse struct {
	// Fingerprint is the canonical query fingerprint (hex): the cache
	// identity of the query shape.
	Fingerprint string `json:"fingerprint"`
	// CacheHit reports the plan came straight from the cache.
	CacheHit bool `json:"cacheHit"`
	// Coalesced reports the request shared another request's in-flight
	// optimization (singleflight).
	Coalesced bool `json:"coalesced"`
	// Degraded / DegradeReason carry the anytime contract of the run
	// that produced the plan.
	Degraded      bool   `json:"degraded"`
	DegradeReason string `json:"degradeReason,omitempty"`
	// BudgetUsed is the served entry's admission weight in work units
	// (plancache.Entry.BudgetUsed): for a Tier-2 plan, what its search
	// spent; for a Tier-1 plan, the budget reserved for its background
	// upgrade, cost.UnitsFor(TCoeff, N−1) for N relations, not
	// the greedy planner's own few hundred units. The
	// ljq_optimize_budget_used_units histogram records what each search,
	// upgrades included, actually spent.
	BudgetUsed int64 `json:"budgetUsed"`
	// TotalCost and Order describe the plan in the requester's own
	// relation numbering; Names maps Order through the requester's
	// relation names.
	TotalCost float64  `json:"totalCost"`
	Order     []int    `json:"order"`
	Names     []string `json:"names"`
	// Tier is the planning tier that produced the plan: 1 = greedy fast
	// path (awaiting background upgrade), 2 = full anytime search. Also
	// exposed as the X-Plan-Tier response header.
	Tier int `json:"tier"`
	// Explain is the human-readable plan rendering.
	Explain string `json:"explain"`
}

// StatusResponse is the JSON body of GET /statusz.
type StatusResponse struct {
	UptimeSeconds    float64         `json:"uptimeSeconds"`
	Ready            bool            `json:"ready"`
	InFlightRequests int64           `json:"inFlightRequests"`
	InFlightJoins    int64           `json:"inFlightJoins"`
	QueuedRequests   int             `json:"queuedRequests"`
	CapacityJoins    int64           `json:"capacityJoins"`
	Optimizations    uint64          `json:"optimizations"`
	Shed             uint64          `json:"shed"`
	Cache            plancache.Stats `json:"cache"`
	// Tiers reports the tiered-planning state: cache tier composition
	// and the background-upgrade pipeline. Enabled is false (and the
	// pipeline counters zero) when the daemon runs untiered; the entry
	// counts are still filled so operators see composition after a
	// warm start from a tiered peer.
	Tiers TierStatus `json:"tiers"`
	// Persist carries the durability layer's recovery and journal
	// counters; omitted when the daemon runs without -cache-dir.
	Persist *persist.ManagerStats `json:"persist,omitempty"`
}

// TierStatus is the /statusz view of tiered planning.
type TierStatus struct {
	Enabled bool `json:"enabled"`
	// Tier1Entries / Tier2Entries is the cache's tier composition:
	// greedy plans awaiting upgrade vs full-search plans.
	Tier1Entries int `json:"tier1Entries"`
	Tier2Entries int `json:"tier2Entries"`
	// PendingUpgrades counts upgrades scheduled but not yet finished —
	// the operator-visible upgrade backlog.
	PendingUpgrades   int    `json:"pendingUpgrades"`
	Tier1Served       uint64 `json:"tier1Served"`
	Escalations       uint64 `json:"escalations"`
	UpgradesStarted   uint64 `json:"upgradesStarted"`
	UpgradesCompleted uint64 `json:"upgradesCompleted"`
	UpgradesFailed    uint64 `json:"upgradesFailed"`
	UpgradesDropped   uint64 `json:"upgradesDropped"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st := StatusResponse{
		//ljqlint:allow detrand -- serving-layer uptime reporting, outside any seeded trajectory
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Ready:            !s.notReady.Load(),
		InFlightRequests: s.inFlight.Load(),
		InFlightJoins:    s.sem.InUse(),
		QueuedRequests:   s.sem.Waiting(),
		CapacityJoins:    s.sem.Capacity(),
		Optimizations:    s.optimizes.Load(),
		Shed:             s.shed.Load(),
		Cache:            s.cache.Stats(),
	}
	st.Tiers.Tier1Entries, st.Tiers.Tier2Entries = s.cache.TierCounts()
	if s.tiers != nil {
		s.tiers.fillStatus(&st.Tiers)
	}
	if s.persist != nil {
		ps := s.persist.Stats()
		st.Persist = &ps
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed; POST a query body", http.StatusMethodNotAllowed)
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	q, hint, err := decodeQuery(r, s.cfg.MaxBodyBytes)
	if err != nil {
		if errors.Is(err, catalog.ErrTooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if entry := s.hintedHit(q, hint); entry != nil {
		respond(w, r, &answer{q: q, order: hint.Order, fp: hint.Fingerprint, entry: entry, hit: true})
		return
	}

	// OptimizeQuery's path, minus the envelope: the response is written
	// straight from the entry. Errors are plain text in either codec —
	// a client that cannot read them has bigger problems than framing.
	fp, order := fingerprint.Canonical(q)
	entry, hit, shared, err := s.computeEntry(r.Context(), fp, q, order)
	if err != nil {
		status, msg, retryAfter := s.optimizeFailure(err)
		if retryAfter > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		}
		http.Error(w, msg, status)
		return
	}
	respond(w, r, &answer{q: q, order: order, fp: fp, entry: entry, hit: hit, shared: shared})
}

// hintedHit returns the entry that answers q from the canonical hint a
// router framed ahead of it, or nil when there is no hint, when its
// order does not cover q's relations, or when the cache holds no entry
// under its fingerprint whose plan covers exactly q's relations; the
// caller then canonicalizes q itself. The hint is only a lookup key: a
// miss, a coalesced wait, an insert, an upgrade and the journal all
// run on the handler's own fingerprint, so a wrong hint can at worst
// mislabel its own sender's answer with a plan GET /snapshot serves.
func (s *Server) hintedHit(q *catalog.Query, hint wire.Canonical) *plancache.Entry {
	// The order is a permutation of 0..n−1, as wire.SplitCanonical
	// checked; with no hint it is empty, and a decoded query is not.
	n := len(hint.Order)
	if n != len(q.Relations) {
		return nil
	}
	entry, ok := s.cache.Get(hint.Fingerprint)
	if !ok || !covers(entry.Plan, n) {
		return nil
	}
	if invariant.Enabled {
		fp, order := fingerprint.Canonical(q)
		invariant.Assert(fp == hint.Fingerprint && slices.Equal(order, hint.Order),
			"serve: canonical hint %x %v differs from the query's own %x %v", hint.Fingerprint, hint.Order, fp[:], order)
	}
	return entry
}

// covers reports whether pl's components hold n positions: an entry's
// plan holds each of its shape's positions once, so an order of n
// relations then translates every one.
func covers(pl *plan.Plan, n int) bool {
	for _, c := range pl.Components {
		n -= len(c.Perm)
	}
	return n == 0
}

// wireSubtype is the distinctive part of wire.ContentType that request
// and Accept headers are matched on (tolerating parameters like
// ";v=1" or lists).
const wireSubtype = "x-ljq-wire"

// Shared header values for /optimize responses, assigned straight into
// the header map so a response allocates none. Each has cap == len, so
// a later Header().Add reallocates instead of writing into the shared
// array.
var (
	tier1Header     = []string{"1"}
	tier2Header     = []string{"2"}
	jsonContentType = []string{"application/json"}
	wireContentType = []string{wire.ContentType}
)

// planTierHeader / tierExplainLine render tier provenance as constant
// values: the cache-hit path stays allocation-flat.
//
//ljqlint:hotpath
func planTierHeader(tier int) []string {
	if tier == int(plancache.TierGreedy) {
		return tier1Header
	}
	return tier2Header
}

//ljqlint:hotpath
func tierExplainLine(tier int) string {
	if tier == int(plancache.TierGreedy) {
		return "  tier 1 (greedy fast path)\n"
	}
	return "  tier 2 (full anytime search)\n"
}

// errNoPlan guards the (unreachable under the anytime contract)
// nil-entry result of a compute; kept distinct so it maps to a 500
// rather than masquerading as capacity pressure.
var errNoPlan = errors.New("serve: no plan produced")

// OptimizeQuery is the in-process optimization path: fingerprint the
// query, consult the cache (coalescing concurrent duplicates), run the
// optimizer on a miss, and translate the canonical plan back into the
// requester's relation numbering. It is shared by POST /optimize, the
// batch endpoint, and the cluster router's local-compute rung — the
// last rung of the degradation ladder calls this directly instead of
// looping an HTTP request back to itself.
//
// Errors: errShed when the limiter's queue deadline passed,
// ctx.Err() when the caller's deadline did; map them with
// optimizeFailure for HTTP responses.
func (s *Server) OptimizeQuery(ctx context.Context, q *catalog.Query) (*OptimizeResponse, error) {
	// Canonical alone keeps the hit path lean: the canonical
	// *relabeling* (Relabel, a full copy plus renumbering) is only
	// needed to feed the optimizer, so computeEntry builds it inside the
	// miss closure. A cache hit pays for fingerprinting alone.
	fp, order := fingerprint.Canonical(q)
	entry, hit, shared, err := s.computeEntry(ctx, fp, q, order)
	if err != nil {
		return nil, err
	}
	return buildResponse(q, order, fp, entry, hit, shared), nil
}

// computeEntry resolves a canonical fingerprint to a plan entry —
// cache hit, coalesced wait, or fresh optimizer run. q stays in the
// requester's coordinates; the flight's leader builds the canonical
// relabeling once, on the miss path only, and every planner of the
// miss reads that one value. No deadline is armed here: a hit, the
// relabeling and a greedy plan never wait, and Server.optimize arms
// the service's request deadline around the one step that does, the
// full search of an escalated or untiered miss. A coalesced waiter
// waits on its own context and on the flight, which resolves by the
// leader's deadline — earlier than the waiter's own would have ended.
// A flight's leader that produced a Tier-1 entry schedules its
// background upgrade of the same canonical query here, after admission
// and before the response is written, so only entries the cache kept
// are upgraded.
func (s *Server) computeEntry(ctx context.Context, fp fingerprint.Fingerprint, q *catalog.Query, order []catalog.RelID) (entry *plancache.Entry, hit, shared bool, err error) {
	var cq *catalog.Query // set by the leader, which runs compute on this goroutine
	entry, hit, shared, err = s.cache.GetOrCompute(ctx, fp, func(ctx context.Context) (*plancache.Entry, error) {
		cq = fingerprint.Relabel(q, order)
		if s.tiers != nil {
			return s.tiers.compute(ctx, fp, cq)
		}
		return s.optimize(ctx, fp, cq)
	})
	if err != nil {
		return nil, false, false, err
	}
	if entry == nil || entry.Plan == nil {
		return nil, false, false, errNoPlan
	}
	if s.tiers != nil && !hit && !shared && entry.Tier == plancache.TierGreedy {
		s.tiers.upgradeIfKept(entry, cq)
	}
	return entry, hit, shared, nil
}

// buildResponse translates a cached plan (canonical coordinates) into
// the requester's own relation numbering and wraps it in the response
// envelope. Two differently-labeled queries of the same shape share a
// fingerprint and an entry but get different orders and names — the
// translation must use each requester's own canonical order. The
// /optimize handler writes the same envelope's bytes without building
// it (answer); buildResponse serves the in-process callers and batch
// items.
func buildResponse(q *catalog.Query, order []catalog.RelID, fp fingerprint.Fingerprint, entry *plancache.Entry, hit, shared bool) *OptimizeResponse {
	pl := translatePlan(entry.Plan, order)
	tier := int(plancache.TierRank(entry.Tier))
	resp := &OptimizeResponse{
		Fingerprint:   fp.String(),
		CacheHit:      hit,
		Coalesced:     shared,
		Degraded:      pl.Degraded,
		DegradeReason: pl.DegradeReason,
		BudgetUsed:    entry.BudgetUsed,
		TotalCost:     pl.TotalCost,
		Tier:          tier,
		Explain:       pl.Explain(q) + tierExplainLine(tier),
	}
	for _, rel := range pl.Order() {
		resp.Order = append(resp.Order, int(rel))
		resp.Names = append(resp.Names, q.RelationName(rel))
	}
	return resp
}

// ResponseFromEntry builds the response envelope for a cached entry in
// the requester's own relation numbering, marked as a cache hit. It is
// the exported sibling of the internal hit path, for callers that
// resolve entries outside OptimizeQuery — the cluster router's
// read-repair serves a better local entry over a routed response with
// it. order must be q's canonical order (fingerprint.Canonical).
func ResponseFromEntry(q *catalog.Query, order []catalog.RelID, fp fingerprint.Fingerprint, entry *plancache.Entry) *OptimizeResponse {
	return buildResponse(q, order, fp, entry, true, false)
}

// optimizeFailure maps an OptimizeQuery error onto an HTTP status,
// message and Retry-After suggestion (0 = none), recording the shed
// bookkeeping that drives the /readyz back-pressure window.
func (s *Server) optimizeFailure(err error) (status int, msg string, retryAfter time.Duration) {
	switch {
	case errors.Is(err, errShed):
		s.shed.Add(1)
		//ljqlint:allow detrand -- readiness shed-window bookkeeping, outside any seeded trajectory
		s.lastShedNano.Store(time.Now().UnixNano())
		return http.StatusServiceUnavailable, "optimizer at capacity; retry later", s.cfg.QueueTimeout
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The *waiter's* deadline passed while another request's
		// optimization was still running (or the client went away).
		return http.StatusServiceUnavailable, "request deadline passed before a plan was available", s.cfg.QueueTimeout
	default:
		return http.StatusInternalServerError, err.Error(), 0
	}
}

// handleSnapshot is the warm-start donor side: GET /snapshot ships the
// whole plan cache as the schema-versioned, CRC-framed snapshot
// container (the same bytes internal/persist writes to disk). Dump is
// fingerprint-sorted, so two donors with identical cache contents ship
// identical bytes. Served regardless of readiness — a draining or
// just-recovered peer is still a legitimate donor.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	data := persist.EncodeSnapshot(s.cache.Dump())
	s.snapships.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	// A short write means the joiner went away mid-transfer; its strict
	// decoder will refuse the torn payload and try the next donor.
	_, _ = w.Write(data)
}

// ArcPushResponse is the JSON body of a successful POST /snapshot/arc.
type ArcPushResponse struct {
	// Received is how many entries the payload carried.
	Received int `json:"received"`
	// Warmed is how many of them the cache accepted (the rest lost to
	// admission policy or upgrade-only replacement — both fine: the
	// pusher's job was delivery, not insistence).
	Warmed int `json:"warmed"`
}

// handleSnapshotArc is the proactive-rebalance receiver: when a ring
// epoch change makes this peer the owner of arcs another peer had
// cached, that peer POSTs the affected entries here as the same
// schema-versioned, CRC-framed snapshot container GET /snapshot ships
// — so a joining peer is warmed by its neighbors the moment it
// appears, instead of depending on its one startup pull. Entries warm
// through the recovery path (no admission hooks fire, so pushed plans
// are not re-journaled as fresh admissions) under the normal admission
// policy: upgrade-only tier replacement means a push can never
// downgrade what this peer already knows. A defective payload is the
// pusher's bug, answered 400 (no retry will fix it); an oversized one
// is answered 413.
func (s *Server) handleSnapshotArc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.arcRejected.Add(1)
		http.Error(w, "method not allowed; POST a snapshot container", http.StatusMethodNotAllowed)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.ArcPushMaxBytes+1))
	if err != nil {
		s.arcRejected.Add(1)
		http.Error(w, fmt.Sprintf("read payload: %v", err), http.StatusBadRequest)
		return
	}
	if int64(len(data)) > s.cfg.ArcPushMaxBytes {
		s.arcRejected.Add(1)
		http.Error(w, fmt.Sprintf("payload exceeds %d bytes", s.cfg.ArcPushMaxBytes), http.StatusRequestEntityTooLarge)
		return
	}
	entries, err := persist.DecodeSnapshotStrict(data)
	if err != nil {
		s.arcRejected.Add(1)
		http.Error(w, fmt.Sprintf("decode payload: %v", err), http.StatusBadRequest)
		return
	}
	resp := ArcPushResponse{Received: len(entries), Warmed: s.cache.WarmAll(entries)}
	s.arcPushes.Add(1)
	s.arcEntries.Add(uint64(resp.Warmed))
	s.arcPushBytes.Add(uint64(len(data)))
	writeJSON(w, http.StatusOK, resp)
}

// optimize is the synchronous cache-miss path: acquire capacity
// weighted by the join count (shedding on queue deadline), then run
// the full search on the canonical query, both under the service's
// request deadline (Config.RequestTimeout), armed here because this is
// the only step of a miss that waits.
func (s *Server) optimize(ctx context.Context, fp fingerprint.Fingerprint, cq *catalog.Query) (*plancache.Entry, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	weight := int64(joins(cq))
	qctx, qcancel := context.WithTimeout(ctx, s.cfg.QueueTimeout)
	err := s.sem.Acquire(qctx, weight)
	qcancel()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err() // the request itself is dead, not just the queue
		}
		return nil, errShed
	}
	defer s.sem.Release(weight)
	s.optimizes.Add(1)

	pl, used, err := s.search(ctx, cq, nil)
	if pl == nil {
		return nil, err
	}
	// A recovered strategy panic still yields a valid (degraded) plan;
	// serve it — the plancache's admission policy keeps degraded plans
	// out of the cache.
	return &plancache.Entry{Fingerprint: fp, Plan: pl, BudgetUsed: used, Tier: plancache.TierFull}, nil
}

// search runs the full anytime search over the canonical query cq
// under searchUnits(cq) and the configured seed, warm-started from
// incumbent when it is non-nil, and returns the plan with the units it
// spent. It is the one full search: a synchronous miss runs it from
// scratch, a background upgrade from the greedy order. cq is only
// read. A nil plan comes with the error that prevented the search;
// RunContext's anytime contract otherwise always yields one, degraded
// if need be.
func (s *Server) search(ctx context.Context, cq *catalog.Query, incumbent plan.Perm) (*plan.Plan, int64, error) {
	budget := cost.NewBudget(s.searchUnits(cq))
	opt, err := core.NewOptimizer(cq, s.cfg.Model, budget, rand.New(rand.NewSource(s.cfg.Seed)), core.Options{Incumbent: incumbent})
	if err != nil {
		return nil, 0, err
	}
	pl, err := opt.RunContext(ctx, s.cfg.Method)
	s.budgetUsedH.Observe(float64(budget.Used())) // nil-safe no-op when metrics are off
	return pl, budget.Used(), err
}

// searchUnits is the work-unit budget of one full search over cq,
// cost.UnitsFor(TCoeff, joins). It is also the admission weight of a
// Tier-1 entry, the budget its upgrade will spend, so the two cannot
// drift.
func (s *Server) searchUnits(cq *catalog.Query) int64 {
	return cost.UnitsFor(s.cfg.TCoeff, joins(cq))
}

// joins is the join count that sizes a search over q: N−1 for N
// relations, at least 1.
func joins(q *catalog.Query) int {
	return max(len(q.Relations)-1, 1)
}

// translatePlan maps a plan expressed in canonical relation positions
// into the requester's RelIDs via the canonical order (order[i] = the
// requester's relation at canonical position i).
func translatePlan(pl *plan.Plan, order []catalog.RelID) *plan.Plan {
	out := &plan.Plan{
		CrossCost:     pl.CrossCost,
		TotalCost:     pl.TotalCost,
		Degraded:      pl.Degraded,
		DegradeReason: pl.DegradeReason,
	}
	for _, c := range pl.Components {
		perm := make(plan.Perm, len(c.Perm))
		for i, p := range c.Perm {
			perm[i] = order[p]
		}
		out.Components = append(out.Components, plan.Result{Perm: perm, Cost: c.Cost})
	}
	return out
}

// decodeQuery reads a size-capped query body. The format is the JSON
// interchange format by default; `?format=dsl` or a Content-Type
// containing "x-qdsl" selects the textual DSL, and `?format=wire` or a
// Content-Type containing "x-ljq-wire" selects the binary wire codec.
// The body is read once, through catalog.CapReader, for every codec:
// an oversized body surfaces as catalog.ErrTooLarge (→ 413), never as
// a silently truncated parse. A wire body may open with a canonical
// frame (wire.SplitCanonical), which is returned as the hint; every
// other body returns a zero hint.
func decodeQuery(r *http.Request, maxBytes int64) (q *catalog.Query, hint wire.Canonical, err error) {
	var format string
	if r.URL.RawQuery != "" {
		format = r.URL.Query().Get("format")
	}
	ct := r.Header.Get("Content-Type")
	isDSL := format == "dsl" || strings.Contains(ct, "x-qdsl")
	isWire := format == "wire" || strings.Contains(ct, wireSubtype)
	switch format {
	case "", "dsl", "json", "wire":
	default:
		return nil, hint, fmt.Errorf("serve: unknown format %q (want dsl, json or wire)", format)
	}
	// Every decoder copies what it keeps out of the body, so the
	// buffer goes back to the pool once decoding returns.
	buf := bodyBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= jsonBufPoolCap {
			bodyBufPool.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(catalog.CapReader(r.Body, maxBytes)); err != nil {
		return nil, hint, err
	}
	switch body := buf.Bytes(); {
	case isWire:
		if hint, body, err = wire.SplitCanonical(body); err == nil {
			q, err = wire.DecodeQuery(body)
		}
	case isDSL:
		q, err = qdsl.Parse(bytes.NewReader(body))
	default:
		q, err = qfile.Decode(body)
	}
	return q, hint, err
}

// bodyBufPool holds request-body buffers for decodeQuery.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// jsonEncBuf is one pooled encode unit: the buffer and an encoder
// permanently aimed at it (json.Encoder has no Reset, so reusing it
// means pooling them together). Once warm, a response costs zero
// encoder/buffer allocations, and the handler hands net/http a single
// sized Write (Content-Length instead of chunked framing).
type jsonEncBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{
	New: func() any {
		e := &jsonEncBuf{}
		e.enc = json.NewEncoder(&e.buf)
		e.enc.SetIndent("", "  ")
		return e
	},
}

// jsonBufPoolCap bounds what returns to the pool: a rare huge Explain
// response must not pin its capacity forever.
const jsonBufPoolCap = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	e := jsonBufPool.Get().(*jsonEncBuf)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// Nothing reached the wire yet, so the failure can surface as
		// a real 500 (the streaming encoder could only tear the
		// connection mid-body).
		jsonBufPool.Put(e)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.WriteHeader(status)
	// Write errors mean the client went away; nothing useful remains
	// to be done with the connection.
	_, _ = w.Write(e.buf.Bytes())
	if e.buf.Cap() <= jsonBufPoolCap {
		jsonBufPool.Put(e)
	}
}

// retryAfterSeconds serializes a suggested wait as a Retry-After
// header value, rounding UP to whole seconds: a 400ms suggestion must
// become "1", not a truncated "0" (which clients read as "retry
// immediately" — the opposite of shedding), and a 1.4s suggestion must
// not lose its fractional 400ms either.
//
//ljqlint:hotpath
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
