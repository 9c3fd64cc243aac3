package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/client"
	"joinopt/internal/faultinject"
	"joinopt/internal/fingerprint"
	"joinopt/internal/serve"
	"joinopt/internal/telemetry"
	"joinopt/internal/wire"
	"joinopt/internal/workload"
)

// testCluster is three in-process ljqd peers behind a chaos transport
// plus a router over them.
type testCluster struct {
	peers   []string // base URLs
	servers map[string]*serve.Server
	ct      *faultinject.ClusterTransport
	router  *Router
}

func hostOf(peer string) string { return strings.TrimPrefix(peer, "http://") }

// breakerState names peer's breaker state as the router sees it.
func breakerState(r *Router, peer string) string { return r.peerStateOf(peer).breaker.State() }

// fakeClock is a manually advanced clock for deterministic breaker
// cooldowns.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func newTestCluster(t *testing.T, rcfg RouterConfig) *testCluster {
	t.Helper()
	tc := &testCluster{
		peers:   []string{"http://peer0", "http://peer1", "http://peer2"},
		servers: map[string]*serve.Server{},
	}
	handlers := map[string]http.Handler{}
	for _, p := range tc.peers {
		srv := serve.New(serve.Config{TCoeff: 1})
		tc.servers[p] = srv
		handlers[hostOf(p)] = srv.Handler()
	}
	tc.ct = faultinject.NewClusterTransport(handlers, nil)
	rcfg.Peers = tc.peers
	if rcfg.Client.Transport == nil {
		rcfg.Client.Transport = tc.ct
	}
	if rcfg.Client.MaxAttempts == 0 {
		rcfg.Client.MaxAttempts = 1 // routing owns retries across peers
	}
	r, err := NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = r
	return tc
}

// queryOwnedBy searches seeds for a query whose ring primary is the
// wanted peer.
func queryOwnedBy(t *testing.T, ring *Ring, peer string, n int) *catalog.Query {
	t.Helper()
	for seed := int64(1); seed < 2000; seed++ {
		q := workload.Default().Generate(n, rand.New(rand.NewSource(seed)))
		fp, _, _ := fingerprint.CanonicalQuery(q)
		if ring.Primary(fp) == peer {
			return q
		}
	}
	t.Fatalf("no %d-join query found with primary %s", n, peer)
	return nil
}

func TestRouterAffinityAndRepeatHit(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{})
	ctx := context.Background()
	q := queryOwnedBy(t, tc.router.Ring(), "http://peer1", 8)

	resp, err := tc.router.Optimize(ctx, q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if resp.CacheHit {
		t.Fatal("first request cannot be a hit")
	}
	resp2, err := tc.router.Optimize(ctx, q)
	if err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if !resp2.CacheHit || resp2.Explain != resp.Explain {
		t.Fatal("affinity broken: repeat did not hit the primary's cache")
	}
	st := tc.router.Stats()
	if st.Routes["http://peer1"] != 2 || st.Failovers != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("stats %+v, want both requests on peer1", st)
	}
	// Only the primary computed anything.
	if tc.servers["http://peer0"].Cache().Stats().Misses != 0 ||
		tc.servers["http://peer2"].Cache().Stats().Misses != 0 {
		t.Fatal("non-primary peers saw traffic")
	}
}

// TestRouterHopSpeaksWire: a router built with a zero-value Client
// template still sends the binary wire codec on every peer hop, and the
// routed answer matches the same query's answer through the JSON edge.
func TestRouterHopSpeaksWire(t *testing.T) {
	type hop struct{ contentType, accept string }
	var (
		mu   sync.Mutex
		hops []hop
	)
	var peers []string
	for i := 0; i < 3; i++ {
		inner := serve.New(serve.Config{TCoeff: 1}).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/optimize" {
				mu.Lock()
				hops = append(hops, hop{r.Header.Get("Content-Type"), r.Header.Get("Accept")})
				mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		}))
		defer ts.Close()
		peers = append(peers, ts.URL)
	}
	r, err := NewRouter(RouterConfig{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := workload.Default().Generate(8, rand.New(rand.NewSource(23)))
	routed, err := r.Optimize(ctx, q)
	if err != nil {
		t.Fatalf("routed Optimize: %v", err)
	}
	mu.Lock()
	got := append([]hop(nil), hops...)
	mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("%d peer hops, want 1", len(got))
	}
	if h := got[0]; h.contentType != wire.ContentType || h.accept != wire.ContentType {
		t.Fatalf("peer hop Content-Type %q Accept %q, want %q for both", h.contentType, h.accept, wire.ContentType)
	}

	fp, _, _ := fingerprint.CanonicalQuery(q)
	edge, err := client.New(client.Config{BaseURL: r.Ring().Primary(fp)})
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, err := edge.Optimize(ctx, q)
	if err != nil {
		t.Fatalf("JSON edge Optimize: %v", err)
	}
	if routed.Fingerprint != viaJSON.Fingerprint ||
		!slices.Equal(routed.Order, viaJSON.Order) ||
		math.Float64bits(routed.TotalCost) != math.Float64bits(viaJSON.TotalCost) ||
		routed.Tier != viaJSON.Tier ||
		routed.Explain != viaJSON.Explain {
		t.Fatalf("routed response %+v differs from JSON edge response %+v", routed, viaJSON)
	}
}

func TestRouterFailoverOnDeadPrimary(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{})
	ctx := context.Background()
	q := queryOwnedBy(t, tc.router.Ring(), "http://peer0", 8)
	fp, _, _ := fingerprint.CanonicalQuery(q)
	second := tc.router.Ring().Successors(fp, 2)[1]

	tc.ct.Kill("peer0")
	resp, err := tc.router.Optimize(ctx, q)
	if err != nil {
		t.Fatalf("Optimize with dead primary: %v", err)
	}
	if len(resp.Order) == 0 || resp.Explain == "" {
		t.Fatalf("invalid plan: %+v", resp)
	}
	st := tc.router.Stats()
	if st.Failovers != 1 || st.Routes[second] != 1 {
		t.Fatalf("stats %+v, want 1 failover onto %s", st, second)
	}
}

// TestRouterAPIErrorReturnsWithoutFailover: a 4xx is the caller's
// error — the primary is alive and judged the request; trying the same
// request elsewhere would waste the ladder.
func TestRouterAPIErrorReturnsWithoutFailover(t *testing.T) {
	// Peers with tiny body caps reject any real query with 413.
	tc := &testCluster{
		peers:   []string{"http://peer0", "http://peer1", "http://peer2"},
		servers: map[string]*serve.Server{},
	}
	handlers := map[string]http.Handler{}
	for _, p := range tc.peers {
		srv := serve.New(serve.Config{TCoeff: 1, MaxBodyBytes: 16})
		tc.servers[p] = srv
		handlers[hostOf(p)] = srv.Handler()
	}
	tc.ct = faultinject.NewClusterTransport(handlers, nil)
	r, err := NewRouter(RouterConfig{
		Peers:  tc.peers,
		Client: client.Config{Transport: tc.ct, MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	q := workload.Default().Generate(8, rand.New(rand.NewSource(5)))
	_, err = r.Optimize(context.Background(), q)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("err = %v, want 413 APIError", err)
	}
	st := r.Stats()
	if st.Failovers != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("4xx caused failover: %+v", st)
	}
	// The peer answered: that is breaker-success, not failure.
	fp, _, _ := fingerprint.CanonicalQuery(q)
	if got := breakerState(r, r.Ring().Primary(fp)); got != "closed" {
		t.Fatalf("primary breaker %s after 4xx", got)
	}
}

func TestRouterBreakerSkipAndRecovery(t *testing.T) {
	clk := newFakeClock()
	tc := newTestCluster(t, RouterConfig{
		Client: client.Config{
			Breaker: client.BreakerConfig{Threshold: 1, Cooldown: 5 * time.Second},
			Now:     clk.now,
		},
	})
	ctx := context.Background()
	q := queryOwnedBy(t, tc.router.Ring(), "http://peer2", 8)

	tc.ct.Kill("peer2")
	if _, err := tc.router.Optimize(ctx, q); err != nil {
		t.Fatalf("first: %v", err)
	}
	if got := breakerState(tc.router, "http://peer2"); got != "open" {
		t.Fatalf("primary breaker %s after failure (threshold 1)", got)
	}
	// Second request: primary skipped without a transport attempt.
	opsBefore := tc.ct.Ops()
	if _, err := tc.router.Optimize(ctx, q); err != nil {
		t.Fatalf("second: %v", err)
	}
	if tc.ct.Ops() != opsBefore+1 {
		t.Fatalf("open breaker still sent a request (%d ops)", tc.ct.Ops()-opsBefore)
	}
	st := tc.router.Stats()
	if st.BreakerSkips != 1 {
		t.Fatalf("breakerSkips = %d, want 1", st.BreakerSkips)
	}

	// Revive + cooldown: the next request is the half-open probe and
	// recloses the breaker.
	tc.ct.Revive("peer2", nil)
	clk.advance(5 * time.Second)
	resp, err := tc.router.Optimize(ctx, q)
	if err != nil {
		t.Fatalf("post-revival: %v", err)
	}
	if resp.Explain == "" {
		t.Fatal("invalid plan after revival")
	}
	if got := breakerState(tc.router, "http://peer2"); got != "closed" {
		t.Fatalf("breaker %s after successful probe", got)
	}
	if n := tc.router.peerStateOf("http://peer2").breaker.Transitions(); n < 3 {
		t.Fatalf("transitions = %d, want ≥ 3 (closed→open→half-open→closed)", n)
	}
}

func TestRouterLocalFallbackWhenAllPeersDead(t *testing.T) {
	local := serve.New(serve.Config{TCoeff: 1})
	tc := newTestCluster(t, RouterConfig{Local: local})
	for _, p := range tc.peers {
		tc.ct.Kill(hostOf(p))
	}
	q := workload.Default().Generate(8, rand.New(rand.NewSource(17)))
	resp, err := tc.router.Optimize(context.Background(), q)
	if err != nil {
		t.Fatalf("total peer loss must not surface an error: %v", err)
	}
	if resp.Explain == "" || len(resp.Order) != 9 {
		t.Fatalf("invalid local plan: %+v", resp)
	}
	st := tc.router.Stats()
	if st.LocalFallbacks != 1 {
		t.Fatalf("localFallbacks = %d", st.LocalFallbacks)
	}
	if local.Cache().Stats().Misses != 1 {
		t.Fatal("local server did not compute")
	}
}

func TestRouterNoLocalSurfacesErrNoPeers(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{})
	for _, p := range tc.peers {
		tc.ct.Kill(hostOf(p))
	}
	q := workload.Default().Generate(6, rand.New(rand.NewSource(18)))
	_, err := tc.router.Optimize(context.Background(), q)
	if !errors.Is(err, ErrNoPeers) {
		t.Fatalf("err = %v, want ErrNoPeers", err)
	}
}

func TestRouterMetricsExported(t *testing.T) {
	reg := telemetry.NewRegistry()
	tc := newTestCluster(t, RouterConfig{Metrics: reg})
	q := queryOwnedBy(t, tc.router.Ring(), "http://peer0", 6)
	tc.ct.Kill("peer0")
	if _, err := tc.router.Optimize(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"ljq_cluster_failover_total 1",
		`ljq_cluster_route_total{peer="http://peer0"} 0`,
		"ljq_cluster_local_fallback_total 0",
		"ljq_cluster_breaker_skip_total 0",
		`ljq_cluster_breaker_transitions_total{peer="http://peer0"}`,
		`ljq_cluster_peer_healthy{peer="http://peer1"} 1`,
		`ljq_cluster_client_retries_total{peer="http://peer0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
