package cluster

import (
	"context"
	"net/http"
	"testing"
	"time"

	"joinopt/internal/client"
	"joinopt/internal/faultinject"
	"joinopt/internal/fingerprint"
	"joinopt/internal/plancache"
	"joinopt/internal/serve"
)

func TestRouterApplyEpochRoutesToJoinedPeer(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{})
	ctx := context.Background()

	// peer3 joins: epoch 1 has four members. The router must mint a
	// client + breaker for it and route its arcs there.
	joined := serve.New(serve.Config{TCoeff: 1})
	tc.ct.Register("peer3", joined.Handler())
	e1, err := NewEpoch(1, []Member{
		{URL: "http://peer0"}, {URL: "http://peer1"},
		{URL: "http://peer2"}, {URL: "http://peer3"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.router.ApplyEpoch(e1); err != nil {
		t.Fatal(err)
	}
	if got := tc.router.Epoch().Seq; got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}

	q := queryOwnedBy(t, tc.router.Ring(), "http://peer3", 8)
	resp, err := tc.router.Optimize(ctx, q)
	if err != nil || len(resp.Order) == 0 {
		t.Fatalf("Optimize on joined peer: %v %+v", err, resp)
	}
	st := tc.router.Stats()
	if st.Routes["http://peer3"] != 1 || st.Failovers != 0 {
		t.Fatalf("stats %+v, want the request on peer3's own rung", st)
	}
	if joined.Cache().Stats().Misses != 1 {
		t.Fatal("joined peer did not serve its arc")
	}

	// Stale and duplicate epochs are ignored, not an error.
	e0, err := StaticEpoch(tc.peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.router.ApplyEpoch(e0); err != nil {
		t.Fatal(err)
	}
	if got := tc.router.Epoch().Seq; got != 1 {
		t.Fatalf("stale epoch replaced current: seq %d", got)
	}
	if err := tc.router.ApplyEpoch(nil); err == nil {
		t.Fatal("nil epoch must error")
	}
	if st := tc.router.Stats(); st.EpochApplies != 2 {
		t.Fatalf("EpochApplies = %d, want 2 (epoch 0 + epoch 1)", st.EpochApplies)
	}
}

// TestRouterShedFailover429 is the regression test for 429 handling:
// a peer answering 429 + Retry-After must cause immediate failover to
// the next ring candidate — no in-line Retry-After sleep, no breaker
// strike against the (alive) shedding peer, and never a surfaced 429
// while another rung lives.
func TestRouterShedFailover429(t *testing.T) {
	peers := []string{"http://peer0", "http://peer1", "http://peer2"}
	real := map[string]*serve.Server{}
	handlers := map[string]http.Handler{}
	for _, p := range peers[1:] {
		srv := serve.New(serve.Config{TCoeff: 1})
		real[p] = srv
		handlers[hostOf(p)] = srv.Handler()
	}
	// peer0 sheds everything with a long Retry-After: the worst case
	// for a router that camps on the hint instead of failing over.
	handlers["peer0"] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "shedding", http.StatusTooManyRequests)
	})
	ct := faultinject.NewClusterTransport(handlers, nil)
	// Sleeping is forbidden while every failure is a shed: failover
	// must be immediate. (The end of the test kills real peers, whose
	// dead-transport retries may back off legitimately.)
	sleepForbidden := true
	router, err := NewRouter(RouterConfig{
		Peers: peers,
		Client: client.Config{
			Transport:   ct,
			MaxAttempts: 3, // even with in-client retries left, shed must fail over instead
			Sleep: func(ctx context.Context, d time.Duration) error {
				if sleepForbidden {
					t.Fatalf("router slept %v on a shedding peer instead of failing over", d)
				}
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	q := queryOwnedBy(t, router.Ring(), "http://peer0", 8)
	fp, _, _ := fingerprint.CanonicalQuery(q)
	second := router.Ring().Successors(fp, 2)[1]
	for i := 0; i < 10; i++ {
		resp, err := router.Optimize(ctx, q)
		if err != nil {
			t.Fatalf("request %d surfaced %v with a live successor", i, err)
		}
		if len(resp.Order) == 0 || resp.Explain == "" {
			t.Fatalf("request %d: invalid plan", i)
		}
	}
	st := router.Stats()
	if st.ShedFailovers != 10 || st.Failovers != 10 || st.Routes[second] != 10 {
		t.Fatalf("stats %+v, want all 10 requests shed off peer0 onto %s", st, second)
	}
	if st.BreakerSkips != 0 {
		t.Fatalf("breakerSkips = %d: shedding opened a breaker", st.BreakerSkips)
	}
	// Ten consecutive sheds (double the default 5-failure threshold)
	// left the peer's circuit closed: alive-but-busy is not dead.
	if got := breakerState(router, "http://peer0"); got != "closed" {
		t.Fatalf("shedding peer breaker %q, want closed", got)
	}
	// With every rung shedding and no local rung, the 429 finally
	// surfaces as the last error rather than being swallowed.
	sleepForbidden = false
	ct.Kill("peer1")
	ct.Kill("peer2")
	if _, err := router.Optimize(ctx, q); err == nil {
		t.Fatal("want error once every rung is shedding or dead")
	}
}

func TestRouterReadRepairServesBetterLocalPlan(t *testing.T) {
	// peer0 plans under a starved work budget (schema-bump divergence
	// stand-in: same fingerprint, worse search outcome); the local
	// server already holds a better-searched plan. The routed response
	// must come back repaired to the local entry.
	peer := serve.New(serve.Config{TCoeff: 1})
	ct := faultinject.NewClusterTransport(map[string]http.Handler{"peer0": peer.Handler()}, nil)
	local := serve.New(serve.Config{TCoeff: 10})
	router, err := NewRouter(RouterConfig{
		Peers:  []string{"http://peer0"},
		Local:  local,
		Client: client.Config{Transport: ct, MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := queryOwnedBy(t, router.Ring(), "http://peer0", 8)
	want, err := local.OptimizeQuery(ctx, q) // seeds the local cache
	if err != nil {
		t.Fatal(err)
	}

	resp, err := router.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalCost != want.TotalCost {
		t.Fatalf("served cost %v, want repaired local cost %v", resp.TotalCost, want.TotalCost)
	}
	st := router.Stats()
	if st.ReadRepairs != 1 || st.RepairsServed != 1 || st.RepairsUpgraded != 0 {
		t.Fatalf("stats %+v, want one served repair", st)
	}
}

func TestRouterReadRepairUpgradesLocalCache(t *testing.T) {
	peer := serve.New(serve.Config{TCoeff: 1})
	ct := faultinject.NewClusterTransport(map[string]http.Handler{"peer0": peer.Handler()}, nil)
	local := serve.New(serve.Config{TCoeff: 1})
	router, err := NewRouter(RouterConfig{
		Peers:  []string{"http://peer0"},
		Local:  local,
		Client: client.Config{Transport: ct, MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := queryOwnedBy(t, router.Ring(), "http://peer0", 8)
	fp, _ := fingerprint.Canonical(q)

	// Plant a worse local entry for the same fingerprint: greedy tier,
	// inflated cost (a stale fast-path survivor).
	good, err := peer.OptimizeQuery(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := peer.Cache().Peek(fp)
	if !ok || len(ent.Plan.Components) != 1 {
		t.Fatalf("peer cache entry missing or multi-component: %v", ok)
	}
	worse := &plancache.Entry{
		Fingerprint: fp,
		Plan:        ent.Plan,
		Tier:        plancache.TierGreedy,
	}
	if !local.Cache().Warm(worse) {
		t.Fatal("could not plant the stale local entry")
	}

	resp, err := router.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalCost != good.TotalCost {
		t.Fatalf("routed cost %v, want %v", resp.TotalCost, good.TotalCost)
	}
	after, ok := local.Cache().Peek(fp)
	if !ok || plancache.TierRank(after.Tier) != plancache.TierFull {
		t.Fatalf("local entry not upgraded: ok=%v tier=%d", ok, after.Tier)
	}
	st := router.Stats()
	if st.ReadRepairs != 1 || st.RepairsUpgraded != 1 || st.RepairsServed != 0 {
		t.Fatalf("stats %+v, want one upgrade repair", st)
	}
}
