package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
	// Local, when set, is the last rung of the degradation ladder: an
	// in-process serve.Server that optimizes when every candidate peer
	// is unreachable. Without it, total peer loss surfaces ErrNoPeers.
	// It is also the read-repair anchor: routed responses are compared
	// against this server's plan cache, and whichever side holds the
	// higher-tier / cheaper plan wins (see readRepair).
	Local *serve.Server
	// Client is the template for the per-peer resilient clients.
	// BaseURL is set per peer. Breaker and Now build the peer's circuit
	// breaker, which the router keeps in the peer's state; the breaker
	// inside the client is DISABLED (double-breaking would make one
	// peer's cooldown unobservable to routing). ShedFailFast is forced
	// on (a shedding peer should cause immediate failover to the next
	// candidate, not an in-line Retry-After sleep). Wire does not
	// apply: every hop goes through Client.OptimizeCanonical, which
	// speaks the binary codec and carries the canonical hint; JSON is
	// for the public edge only.
	Client client.Config
	// Metrics, when set, receives per-peer routing counters, breaker
	// churn, health gauges and the per-peer client resilience stats.
	Metrics *telemetry.Registry
}

// peerState is one peer's routing state: its resilient client, its
// circuit breaker and its success counter. States are created when a
// peer first appears in an epoch and never removed — a peer that
// leaves and rejoins keeps its counters and its failure history (an
// epoch change must not amnesty a flappy peer), and metrics for it
// register exactly once.
type peerState struct {
	client  *client.Client
	breaker *client.Breaker
	routes  atomic.Uint64
}

// Router is the cluster routing client: consistent-hash primary
// routing with breaker-aware ring-successor failover and optional
// local compute. Safe for concurrent use; candidates are tried one at
// a time in ring order, so with a sequential caller its request
// trajectory is deterministic.
//
// Membership is epoch-based: the ring lives behind an atomic pointer
// to the current Epoch, loaded exactly once per request — every
// request observes one consistent (ring, epoch) pair, and a request
// in flight when ApplyEpoch lands finishes on the epoch it started on.
type Router struct {
	cfg   RouterConfig
	epoch atomic.Pointer[Epoch]

	mu    sync.RWMutex // guards peers map shape (not the states within)
	peers map[string]*peerState

	failovers       atomic.Uint64 // responses served by a non-primary peer
	breakerSkips    atomic.Uint64 // candidates skipped with an open breaker
	localFallbacks  atomic.Uint64 // requests served by local compute
	shedFailovers   atomic.Uint64 // candidates skipped over because they answered 429/503
	epochApplies    atomic.Uint64 // membership epochs applied
	staleEpochs     atomic.Uint64 // ApplyEpoch calls ignored as non-monotonic
	readRepairs     atomic.Uint64 // read-repair actions (local served or local upgraded)
	repairsServed   atomic.Uint64 // read-repairs that served the better local entry
	repairsUpgraded atomic.Uint64 // read-repairs that upgraded the local cache from a routed plan
}

// NewRouter builds a router over the configured peers (epoch 0).
func NewRouter(cfg RouterConfig) (*Router, error) {
	epoch0, err := StaticEpoch(cfg.Peers, 0)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:   cfg,
		peers: make(map[string]*peerState, len(cfg.Peers)),
	}
	if reg := cfg.Metrics; reg != nil {
		reg.CounterFunc("ljq_cluster_failover_total", "Requests served by a non-primary ring peer.", r.failovers.Load)
		reg.CounterFunc("ljq_cluster_local_fallback_total", "Requests served by local compute after peer exhaustion.", r.localFallbacks.Load)
		reg.CounterFunc("ljq_cluster_breaker_skip_total", "Candidate peers skipped with an open breaker.", r.breakerSkips.Load)
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
	r.epoch.Store(e)
	r.epochApplies.Add(1)
	return nil
}

// ensurePeerLocked creates peer's client/breaker/state on first sight.
// Caller holds r.mu.
func (r *Router) ensurePeerLocked(peer string) error {
	if _, ok := r.peers[peer]; ok {
		return nil
	}
	ccfg := r.cfg.Client
	ccfg.BaseURL = peer
	// The peer's breaker lives in its state, built from the template's
	// Breaker and Now; a second breaker inside the client would trip
	// invisibly to routing. ShedFailFast: a peer that answers 429/503 is
	// alive but refusing work — the router fails over to the next ring
	// successor immediately instead of camping on the shedding peer's
	// Retry-After.
	br := client.NewBreaker(ccfg.Breaker, ccfg.Now)
	ccfg.Breaker = client.BreakerConfig{Threshold: -1}
	ccfg.ShedFailFast = true
	c, err := client.New(ccfg)
	if err != nil {
		return fmt.Errorf("cluster: peer %s: %w", peer, err)
	}
	st := &peerState{client: c, breaker: br}
	r.peers[peer] = st
	if reg := r.cfg.Metrics; reg != nil {
		label := fmt.Sprintf("{peer=%q}", peer)
		reg.CounterFunc("ljq_cluster_route_total"+label, "Requests served by this peer.", st.routes.Load)
		reg.CounterFunc("ljq_cluster_breaker_transitions_total"+label, "This peer's breaker state transitions.", br.Transitions)
		reg.GaugeFunc("ljq_cluster_peer_healthy"+label, "1 while this peer's breaker admits traffic.", func() float64 {
			if br.State() == "open" {
				return 0
			}
			return 1
		})
		c.RegisterMetrics(reg, "ljq_cluster_client", label)
	}
	return nil
}

// peerStateOf returns peer's routing state. Every peer of an applied
// epoch has one: ApplyEpoch creates the states before it stores the
// epoch, and states are never removed.
func (r *Router) peerStateOf(peer string) *peerState {
	r.mu.RLock()
	st := r.peers[peer]
	r.mu.RUnlock()
	return st
}

// Epoch returns the membership epoch requests are currently routed on.
func (r *Router) Epoch() *Epoch { return r.epoch.Load() }

// Ring exposes the current routing ring (status surfaces, tests).
func (r *Router) Ring() *Ring { return r.epoch.Load().ring }

// RouterStats is a snapshot of the router's routing counters.
type RouterStats struct {
	Routes          map[string]uint64 `json:"routes"`
	Failovers       uint64            `json:"failovers"`
	BreakerSkips    uint64            `json:"breakerSkips"`
	LocalFallbacks  uint64            `json:"localFallbacks"`
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

// Optimize routes q down the degradation ladder: the primary peer,
// then its ring successors one at a time (skipping open breakers),
// then local compute. Each peer hop carries the canonical fingerprint
// and order that picked the peer, so the peer can answer a hit without
// canonicalizing q again. The returned error is only ever the caller's
// own (4xx APIError, a dead context) or — with no local rung —
// ErrNoPeers.
func (r *Router) Optimize(ctx context.Context, q *catalog.Query) (*serve.OptimizeResponse, error) {
	fp, order := fingerprint.Canonical(q)
	ep := r.epoch.Load() // one load: this request's consistent (ring, epoch) pair
	var lastErr error
	for i, peer := range ep.ring.Successors(fp, len(ep.Peers())) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := r.peerStateOf(peer)
		if !st.breaker.Allow() {
			r.breakerSkips.Add(1)
			continue
		}
		resp, err := st.client.OptimizeCanonical(ctx, q, fp, order)
		if err == nil {
			st.breaker.Success()
			st.routes.Add(1)
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
			st.breaker.Success()
			return nil, err
		}
		var shed *client.ShedError
		if errors.As(err, &shed) {
			// 429/503: the peer is alive but refusing work. That is not
			// a death verdict — no breaker strike (a shedding peer must
			// not get its circuit opened as if it were down) — but the
			// request moves on to the next candidate immediately.
			st.breaker.Success()
			r.shedFailovers.Add(1)
			lastErr = err
			continue
		}
		if ctx.Err() != nil {
			// The caller gave up mid-request: release the slot without
			// a verdict on the peer.
			st.breaker.Cancel()
			return nil, ctx.Err()
		}
		st.breaker.Failure()
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
