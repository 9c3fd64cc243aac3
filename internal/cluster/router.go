package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/client"
	"joinopt/internal/fingerprint"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/serve"
	"joinopt/internal/telemetry"
)

// ErrNoPeers reports that every routing rung is gone: all candidate
// peers failed or were skipped and the router has no local optimizer.
var ErrNoPeers = errors.New("cluster: no peer available and no local optimizer")

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Peers are the initial ring members' base URLs (e.g.
	// "http://host:8080") — membership epoch 0. ApplyEpoch swaps in
	// later generations without rebuilding the router.
	Peers []string
	// Replicas is the ring's virtual-node count per weight unit per
	// peer (default DefaultReplicas).
	Replicas int
	// FallbackDepth is how many ring successors beyond the primary to
	// try before falling back to local compute (default: every other
	// peer).
	FallbackDepth int
	// Local, when set, is the last rung of the degradation ladder: an
	// in-process serve.Server that optimizes when every candidate peer
	// is unreachable. Without it, total peer loss surfaces ErrNoPeers.
	// It is also the read-repair anchor: routed responses are compared
	// against this server's plan cache, and whichever side holds the
	// higher-tier / cheaper plan wins (see readRepair).
	Local *serve.Server
	// Client is the template for the per-peer resilient clients.
	// BaseURL is set per peer; the per-client circuit breaker is
	// DISABLED (the Health view owns circuit state — double-breaking
	// would make one peer's cooldown unobservable to routing),
	// ShedFailFast is forced on (a shedding peer should cause immediate
	// failover to the next candidate, not an in-line Retry-After sleep)
	// and Wire is forced on (every peer speaks the binary codec; JSON is
	// for the public edge only).
	Client client.Config
	// HedgeDelay, when positive, races the next ring successor after
	// this much primary silence instead of waiting for it to fail
	// outright; the first useful response wins and the loser is
	// cancelled. 0 = strictly sequential failover (deterministic, the
	// chaos harness's mode).
	HedgeDelay time.Duration
	// After overrides the hedge timer (tests); nil = real timer.
	After func(d time.Duration) <-chan time.Time
	// Health tunes the peer-health view. A nil Health.Probe defaults
	// to GET /readyz through the per-peer client.
	Health HealthConfig
	// Metrics, when set, receives per-peer routing counters, breaker
	// churn, health gauges and the per-peer client resilience stats.
	Metrics *telemetry.Registry
}

// peerState is one peer's routing state: its resilient client and
// success counter. States are created when a peer first appears in an
// epoch and never removed — a peer that leaves and rejoins keeps its
// counters, and metrics for it register exactly once.
type peerState struct {
	client *client.Client
	routes atomic.Uint64
}

// Router is the cluster routing client: consistent-hash primary
// routing with breaker-aware ring-successor failover and optional
// local compute. Safe for concurrent use; with HedgeDelay == 0 and a
// sequential caller its request trajectory is deterministic.
//
// Membership is epoch-based: the ring lives behind an atomic pointer
// to the current Epoch, loaded exactly once per request — every
// request observes one consistent (ring, epoch) pair, and a request
// in flight when ApplyEpoch lands finishes on the epoch it started on.
type Router struct {
	cfg    RouterConfig
	epoch  atomic.Pointer[Epoch]
	health *Health

	mu    sync.RWMutex // guards peers map shape (not the states within)
	peers map[string]*peerState

	failovers       atomic.Uint64 // responses served by a non-primary peer
	breakerSkips    atomic.Uint64 // candidates skipped with an open breaker
	localFallbacks  atomic.Uint64 // requests served by local compute
	hedgedFallbacks atomic.Uint64 // successor launches triggered by the hedge timer
	shedFailovers   atomic.Uint64 // candidates skipped over because they answered 429/503
	epochApplies    atomic.Uint64 // membership epochs applied
	staleEpochs     atomic.Uint64 // ApplyEpoch calls ignored as non-monotonic
	readRepairs     atomic.Uint64 // read-repair actions (local served or local upgraded)
	repairsServed   atomic.Uint64 // read-repairs that served the better local entry
	repairsUpgraded atomic.Uint64 // read-repairs that upgraded the local cache from a routed plan
}

// NewRouter builds a router over the configured peers (epoch 0).
func NewRouter(cfg RouterConfig) (*Router, error) {
	epoch0, err := StaticEpoch(cfg.Peers, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:   cfg,
		peers: make(map[string]*peerState, len(cfg.Peers)),
	}
	hcfg := cfg.Health
	if hcfg.Probe == nil {
		hcfg.Probe = func(ctx context.Context, peer string) error {
			c := r.clientFor(peer)
			if c == nil {
				return fmt.Errorf("cluster: unknown peer %s", peer)
			}
			return c.Ready(ctx)
		}
	}
	r.health = NewHealth(nil, hcfg)
	if reg := cfg.Metrics; reg != nil {
		reg.CounterFunc("ljq_cluster_failover_total", "Requests served by a non-primary ring peer.", r.failovers.Load)
		reg.CounterFunc("ljq_cluster_local_fallback_total", "Requests served by local compute after peer exhaustion.", r.localFallbacks.Load)
		reg.CounterFunc("ljq_cluster_breaker_skip_total", "Candidate peers skipped with an open breaker.", r.breakerSkips.Load)
		reg.CounterFunc("ljq_cluster_hedged_fallback_total", "Ring-successor launches triggered by the hedge timer.", r.hedgedFallbacks.Load)
		reg.CounterFunc("ljq_cluster_shed_failover_total", "Candidates failed over because they answered with load shedding (429/503).", r.shedFailovers.Load)
		reg.CounterFunc("ljq_cluster_epoch_applies_total", "Membership epochs applied to the routing ring.", r.epochApplies.Load)
		reg.CounterFunc("ljq_read_repair_total", "Read-repair actions: responses replaced by a better local entry plus local entries upgraded from routed plans.", r.readRepairs.Load)
		reg.GaugeFunc("ljq_cluster_epoch", "Current membership epoch sequence number.", func() float64 {
			return float64(r.Epoch().Seq)
		})
	}
	if err := r.ApplyEpoch(epoch0); err != nil {
		return nil, err
	}
	return r, nil
}

// ApplyEpoch swaps the routing ring to a new membership epoch. Epochs
// apply monotonically: a sequence number at or below the current one
// is ignored (counted, not an error — poll races are benign). New
// peers get clients, breakers and metrics on first sight; peers that
// left keep their state for a possible return. In-flight requests
// finish on the epoch they loaded; the next request sees e.
func (r *Router) ApplyEpoch(e *Epoch) error {
	if e == nil {
		return errors.New("cluster: nil epoch")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.epoch.Load(); cur != nil && e.Seq <= cur.Seq {
		r.staleEpochs.Add(1)
		return nil
	}
	for _, p := range e.Peers() {
		if err := r.ensurePeerLocked(p); err != nil {
			return err
		}
	}
	r.health.Ensure(e.Peers())
	r.epoch.Store(e)
	r.epochApplies.Add(1)
	return nil
}

// ensurePeerLocked creates peer's client/state on first sight. Caller
// holds r.mu.
func (r *Router) ensurePeerLocked(peer string) error {
	if _, ok := r.peers[peer]; ok {
		return nil
	}
	ccfg := r.cfg.Client
	ccfg.BaseURL = peer
	// Health owns the circuit state; a second breaker inside the
	// client would trip invisibly to routing. ShedFailFast: a peer
	// that answers 429/503 is alive but refusing work — the router
	// fails over to the next ring successor immediately instead of
	// camping on the shedding peer's Retry-After. Wire: the hop is
	// internal, so it always takes the binary codec.
	ccfg.Breaker = client.BreakerConfig{Threshold: -1}
	ccfg.ShedFailFast = true
	ccfg.Wire = true
	c, err := client.New(ccfg)
	if err != nil {
		return fmt.Errorf("cluster: peer %s: %w", peer, err)
	}
	st := &peerState{client: c}
	r.peers[peer] = st
	if reg := r.cfg.Metrics; reg != nil {
		p := peer
		label := fmt.Sprintf("{peer=%q}", p)
		reg.CounterFunc("ljq_cluster_route_total"+label, "Requests served by this peer.", st.routes.Load)
		reg.CounterFunc("ljq_cluster_breaker_transitions_total"+label, "This peer's breaker state transitions.",
			func() uint64 { return r.health.Transitions(p) })
		reg.GaugeFunc("ljq_cluster_peer_healthy"+label, "1 while this peer's breaker admits traffic.", func() float64 {
			if r.health.Healthy(p) {
				return 1
			}
			return 0
		})
		c.RegisterMetrics(reg, "ljq_cluster_client", label)
	}
	return nil
}

// clientFor returns peer's client (nil if the peer was never in any
// applied epoch).
func (r *Router) clientFor(peer string) *client.Client {
	r.mu.RLock()
	st := r.peers[peer]
	r.mu.RUnlock()
	if st == nil {
		return nil
	}
	return st.client
}

// routeCounted bumps peer's success counter.
func (r *Router) routeCounted(peer string) {
	r.mu.RLock()
	st := r.peers[peer]
	r.mu.RUnlock()
	if st != nil {
		st.routes.Add(1)
	}
}

// Epoch returns the membership epoch requests are currently routed on.
func (r *Router) Epoch() *Epoch { return r.epoch.Load() }

// Ring exposes the current routing ring (status surfaces, tests).
func (r *Router) Ring() *Ring { return r.epoch.Load().ring }

// Health exposes the peer-health view.
func (r *Router) Health() *Health { return r.health }

// ProbeAll actively probes every admitted peer's /readyz (see
// Health.ProbeAll).
func (r *Router) ProbeAll(ctx context.Context) { r.health.ProbeAll(ctx) }

// RouterStats is a snapshot of the router's routing counters.
type RouterStats struct {
	Routes          map[string]uint64 `json:"routes"`
	Failovers       uint64            `json:"failovers"`
	BreakerSkips    uint64            `json:"breakerSkips"`
	LocalFallbacks  uint64            `json:"localFallbacks"`
	HedgedFallbacks uint64            `json:"hedgedFallbacks"`
	ShedFailovers   uint64            `json:"shedFailovers"`
	Epoch           uint64            `json:"epoch"`
	EpochApplies    uint64            `json:"epochApplies"`
	ReadRepairs     uint64            `json:"readRepairs"`
	RepairsServed   uint64            `json:"repairsServed"`
	RepairsUpgraded uint64            `json:"repairsUpgraded"`
}

// Stats snapshots the routing counters. Routes covers every peer ever
// seen in an applied epoch, including ones no longer in the ring.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Failovers:       r.failovers.Load(),
		BreakerSkips:    r.breakerSkips.Load(),
		LocalFallbacks:  r.localFallbacks.Load(),
		HedgedFallbacks: r.hedgedFallbacks.Load(),
		ShedFailovers:   r.shedFailovers.Load(),
		Epoch:           r.Epoch().Seq,
		EpochApplies:    r.epochApplies.Load(),
		ReadRepairs:     r.readRepairs.Load(),
		RepairsServed:   r.repairsServed.Load(),
		RepairsUpgraded: r.repairsUpgraded.Load(),
	}
	r.mu.RLock()
	st.Routes = make(map[string]uint64, len(r.peers))
	//ljqlint:allow detrand -- snapshot into a map; JSON marshaling sorts keys
	for p, ps := range r.peers {
		st.Routes[p] = ps.routes.Load()
	}
	r.mu.RUnlock()
	return st
}

// depthFor is the candidate count for one request under epoch ep.
func (r *Router) depthFor(ep *Epoch) int {
	n := len(ep.Peers())
	depth := r.cfg.FallbackDepth + 1
	if r.cfg.FallbackDepth <= 0 || depth > n {
		depth = n
	}
	return depth
}

// Optimize routes q down the degradation ladder: primary peer, then
// ring successors (hedged when HedgeDelay is set), then local compute.
// The returned error is only ever the caller's own (4xx APIError, a
// dead context) or — with no local rung — ErrNoPeers.
func (r *Router) Optimize(ctx context.Context, q *catalog.Query) (*serve.OptimizeResponse, error) {
	fp, order := fingerprint.Canonical(q)
	ep := r.epoch.Load() // one load: this request's consistent (ring, epoch) pair
	cands := ep.ring.Successors(fp, r.depthFor(ep))
	if r.cfg.HedgeDelay > 0 && len(cands) > 1 {
		return r.optimizeHedged(ctx, q, order, fp, cands)
	}
	return r.optimizeSequential(ctx, q, order, fp, cands)
}

// shedding classifies err as a load-shedding answer (429/503) from an
// alive peer.
func shedding(err error) bool {
	var s *client.ShedError
	return errors.As(err, &s)
}

// optimizeSequential tries candidates one at a time, in ring order.
func (r *Router) optimizeSequential(ctx context.Context, q *catalog.Query, order []catalog.RelID, fp fingerprint.Fingerprint, cands []string) (*serve.OptimizeResponse, error) {
	var lastErr error
	for i, peer := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !r.health.Allow(peer) {
			r.breakerSkips.Add(1)
			continue
		}
		c := r.clientFor(peer)
		if c == nil {
			// Unreachable by construction (ApplyEpoch creates states
			// before storing the epoch), but a missing client must still
			// resolve the claimed health slot.
			r.health.ReportCancelled(peer)
			continue
		}
		resp, err := c.Optimize(ctx, q)
		if err == nil {
			r.health.ReportSuccess(peer)
			r.routeCounted(peer)
			if i > 0 {
				r.failovers.Add(1)
			}
			return r.readRepair(q, order, fp, resp), nil
		}
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			// The peer is alive and judged the request itself
			// defective; that verdict belongs to the caller — failing
			// over would just re-ask the same question.
			r.health.ReportSuccess(peer)
			return nil, err
		}
		if shedding(err) {
			// 429/503: the peer is alive but refusing work. That is not
			// a death verdict — no breaker strike (a shedding peer must
			// not get its circuit opened as if it were down) — but the
			// request moves on to the next candidate immediately.
			r.health.ReportSuccess(peer)
			r.shedFailovers.Add(1)
			lastErr = err
			continue
		}
		if ctx.Err() != nil {
			r.health.ReportCancelled(peer)
			return nil, ctx.Err()
		}
		r.health.ReportFailure(peer)
		lastErr = err
	}
	return r.localCompute(ctx, q, lastErr)
}

// localCompute is the ladder's last rung.
func (r *Router) localCompute(ctx context.Context, q *catalog.Query, lastErr error) (*serve.OptimizeResponse, error) {
	if r.cfg.Local == nil {
		if lastErr != nil {
			return nil, fmt.Errorf("%w (last peer error: %v)", ErrNoPeers, lastErr)
		}
		return nil, ErrNoPeers
	}
	r.localFallbacks.Add(1)
	return r.cfg.Local.OptimizeQuery(ctx, q)
}

// readRepair reconciles a routed response against the local server's
// plan cache when the two hold fingerprint-identical but divergent
// plans (replicas drift after a schema bump: same shape, different
// search outcomes). The higher-tier / lower-cost side wins, in both
// directions:
//
//   - local better → the response is rebuilt from the local entry (the
//     caller gets the best plan the cluster knows);
//   - routed better → the routed plan is admitted into the local cache
//     under the existing upgrade-only replacement rule (a repair can
//     refresh or upgrade, never downgrade).
//
// Repair admission only reconstructs single-component plans — a
// multi-component flat order cannot be split back into per-component
// costs from the response envelope alone — and never degrades
// anything: degraded responses and absent local entries are left as
// they are (an absent entry is replication's job, not repair's).
func (r *Router) readRepair(q *catalog.Query, order []catalog.RelID, fp fingerprint.Fingerprint, resp *serve.OptimizeResponse) *serve.OptimizeResponse {
	local := r.cfg.Local
	if local == nil || resp == nil || resp.Degraded {
		return resp
	}
	ent, ok := local.Cache().Peek(fp)
	if !ok || ent.Plan == nil {
		return resp
	}
	localTier, respTier := plancache.TierRank(ent.Tier), uint8(resp.Tier)
	switch {
	case localTier > respTier,
		localTier == respTier && ent.Plan.TotalCost < resp.TotalCost:
		// The local cache knows a strictly better plan: serve it.
		r.readRepairs.Add(1)
		r.repairsServed.Add(1)
		return serve.ResponseFromEntry(q, order, fp, ent)
	case respTier > localTier,
		localTier == respTier && resp.TotalCost < ent.Plan.TotalCost:
		// The routed plan is strictly better: repair the local cache.
		if e := entryFromResponse(order, fp, ent, resp); e != nil && local.Cache().Put(e) {
			r.readRepairs.Add(1)
			r.repairsUpgraded.Add(1)
		}
	}
	return resp
}

// entryFromResponse reconstructs a canonical-coordinates cache entry
// from a routed response. Only single-component, cross-product-free
// plans are reconstructible: the response's flat Order is the one
// component's permutation in the requester's numbering, inverse-mapped
// through the canonical order. localEnt (same fingerprint, so same
// component structure — components are a function of the query's join
// graph, not of the search) gates reconstructibility. Returns nil when
// the response cannot be faithfully rebuilt.
func entryFromResponse(order []catalog.RelID, fp fingerprint.Fingerprint, localEnt *plancache.Entry, resp *serve.OptimizeResponse) *plancache.Entry {
	if len(localEnt.Plan.Components) != 1 || localEnt.Plan.CrossCost != 0 {
		return nil
	}
	if len(resp.Order) != len(order) {
		return nil
	}
	pos := make(map[catalog.RelID]int, len(order))
	for i, rel := range order {
		pos[rel] = i
	}
	perm := make(plan.Perm, len(resp.Order))
	seen := make([]bool, len(order))
	for i, rid := range resp.Order {
		p, ok := pos[catalog.RelID(rid)]
		if !ok || seen[p] {
			return nil
		}
		seen[p] = true
		perm[i] = catalog.RelID(p)
	}
	pl := &plan.Plan{
		Components: []plan.Result{{Perm: perm, Cost: resp.TotalCost}},
		TotalCost:  resp.TotalCost,
	}
	return &plancache.Entry{
		Fingerprint: fp,
		Plan:        pl,
		BudgetUsed:  resp.BudgetUsed,
		Tier:        uint8(resp.Tier),
	}
}

// peerResult is one candidate's outcome in the hedged path.
type peerResult struct {
	peer string
	resp *serve.OptimizeResponse
	err  error
}

// optimizeHedged races ring candidates: the primary launches
// immediately; if it is still silent after HedgeDelay the next
// admitted successor joins the race (one hedge at a time — further
// successors launch only after an outright failure). The first useful
// response wins and every loser is cancelled; abandoned health slots
// are released without a verdict.
func (r *Router) optimizeHedged(ctx context.Context, q *catalog.Query, order []catalog.RelID, fp fingerprint.Fingerprint, cands []string) (*serve.OptimizeResponse, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan peerResult, len(cands))
	next, inFlight := 0, 0
	primary := ""
	launch := func(hedge bool) bool {
		for next < len(cands) {
			peer := cands[next]
			next++
			//ljqlint:allow slotresolve -- the slot resolves in the result loop, not here: ReportSuccess for the winning response, ReportFailure for errors, and reapLosers' ReportCancelled for abandoned in-flight candidates
			if !r.health.Allow(peer) {
				r.breakerSkips.Add(1)
				continue
			}
			c := r.clientFor(peer)
			if c == nil {
				r.health.ReportCancelled(peer)
				continue
			}
			if primary == "" {
				primary = peer
			}
			if hedge {
				r.hedgedFallbacks.Add(1)
			}
			inFlight++
			go func(peer string, c *client.Client) {
				// Goroutine panic barrier (panicguard): a crash in the
				// client must resolve this candidate's slot, not kill
				// the process.
				defer func() {
					if rec := recover(); rec != nil {
						results <- peerResult{peer: peer, err: fmt.Errorf("cluster: peer attempt panicked: %v", rec)}
					}
				}()
				resp, err := c.Optimize(actx, q)
				results <- peerResult{peer: peer, resp: resp, err: err}
			}(peer, c)
			return true
		}
		return false
	}
	if !launch(false) {
		return r.localCompute(ctx, q, nil)
	}
	timerC, stopTimer := r.hedgeTimer()
	defer stopTimer()

	var lastErr error
	for {
		select {
		case out := <-results:
			inFlight--
			if out.err == nil {
				r.health.ReportSuccess(out.peer)
				r.routeCounted(out.peer)
				if out.peer != primary {
					r.failovers.Add(1)
				}
				cancel()
				r.reapLosers(results, inFlight)
				return r.readRepair(q, order, fp, out.resp), nil
			}
			var apiErr *client.APIError
			if errors.As(out.err, &apiErr) {
				r.health.ReportSuccess(out.peer)
				cancel()
				r.reapLosers(results, inFlight)
				return nil, out.err
			}
			if ctx.Err() != nil {
				r.health.ReportCancelled(out.peer)
				r.reapLosers(results, inFlight)
				return nil, ctx.Err()
			}
			if shedding(out.err) {
				// Alive but refusing work: release the slot as success
				// (no breaker strike) and move on to the next candidate.
				r.health.ReportSuccess(out.peer)
				r.shedFailovers.Add(1)
			} else {
				r.health.ReportFailure(out.peer)
			}
			lastErr = out.err
			if inFlight == 0 && !launch(false) {
				return r.localCompute(ctx, q, lastErr)
			}
		case <-timerC:
			timerC = nil
			launch(true)
		case <-ctx.Done():
			r.reapLosers(results, inFlight)
			return nil, ctx.Err()
		}
	}
}

// reapLosers collects the outstanding candidates' results in the
// background so every claimed health slot is resolved: a loser that
// actually completed gets its real verdict; a cancelled one releases
// its slot verdict-free. The results channel is buffered for every
// candidate and losers are cancelled, so the reaper always terminates.
func (r *Router) reapLosers(results chan peerResult, inFlight int) {
	if inFlight <= 0 {
		return
	}
	go func() {
		// Goroutine panic barrier (panicguard).
		defer func() { _ = recover() }()
		for i := 0; i < inFlight; i++ {
			out := <-results
			if out.err == nil {
				r.health.ReportSuccess(out.peer)
			} else {
				r.health.ReportCancelled(out.peer)
			}
		}
	}()
}

// hedgeTimer arms the hedge-delay timer: the After test hook if set,
// otherwise a stoppable real timer.
func (r *Router) hedgeTimer() (<-chan time.Time, func()) {
	if r.cfg.After != nil {
		return r.cfg.After(r.cfg.HedgeDelay), func() {}
	}
	t := time.NewTimer(r.cfg.HedgeDelay)
	return t.C, func() { t.Stop() }
}
