package cluster

// chaos_test.go is the cluster acceptance test: three in-process ljqd
// peers behind the routing client, with scripted kills and restarts —
// including a donor dying mid-snapshot-stream — woven through live
// traffic at exact operation indices. Every request must yield a valid
// plan, two same-seed runs must produce byte-identical trajectory logs
// and response sequences, a restarting peer must warm-start from a
// shipped snapshot (falling to the next donor when the stream tears),
// and nothing may leak goroutines.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/client"
	"joinopt/internal/faultinject"
	"joinopt/internal/fingerprint"
	"joinopt/internal/serve"
	"joinopt/internal/workload"
)

// queryWithOrder scans seeds for a query whose full ring-successor
// order matches want exactly, pinning every rung of the failover
// ladder so the chaos script's op indices are computable.
func queryWithOrder(t *testing.T, ring *Ring, want []string, n int) *catalog.Query {
	t.Helper()
	for seed := int64(1); seed < 5000; seed++ {
		q := workload.Default().Generate(n, rand.New(rand.NewSource(seed)))
		fp, _, _ := fingerprint.CanonicalQuery(q)
		got := ring.Successors(fp, len(want))
		ok := len(got) == len(want)
		for i := range want {
			ok = ok && got[i] == want[i]
		}
		if ok {
			return q
		}
	}
	t.Fatalf("no %d-join query found with successor order %v", n, want)
	return nil
}

// chaosRun is one full scripted cluster lifetime's artifacts.
type chaosRun struct {
	trajectory string            // the transport's op-ordered event log
	responses  []byte            // JSON of every routed response, in order
	stats      RouterStats       //
	warmLog    []string          // restart-hook warm-start outcomes
	shipped    map[string][]byte // responses the warm-plan check compares
}

// runChaosScript builds a fresh 3-peer cluster and drives the scripted
// kill/restart/traffic interleaving. Everything is seeded and the
// caller is sequential, so two invocations must agree byte for byte.
func runChaosScript(t *testing.T) *chaosRun {
	t.Helper()
	peers := []string{"http://peer0", "http://peer1", "http://peer2"}
	host := func(p string) string { return strings.TrimPrefix(p, "http://") }

	ring, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Six shapes, two owned by each peer, with every successor ladder
	// pinned (comments give the orders the script's op math relies on).
	sA := queryWithOrder(t, ring, []string{"http://peer0", "http://peer1", "http://peer2"}, 7)
	sB := queryWithOrder(t, ring, []string{"http://peer1", "http://peer0", "http://peer2"}, 8)
	sC := queryWithOrder(t, ring, []string{"http://peer2", "http://peer1", "http://peer0"}, 9)
	sD := queryWithOrder(t, ring, []string{"http://peer1", "http://peer2", "http://peer0"}, 7)
	sE := queryWithOrder(t, ring, []string{"http://peer0", "http://peer2", "http://peer1"}, 8)
	sF := queryWithOrder(t, ring, []string{"http://peer2", "http://peer0", "http://peer1"}, 9)

	servers := map[string]*serve.Server{}
	handlers := map[string]http.Handler{}
	for _, p := range peers {
		srv := serve.New(serve.Config{TCoeff: 1, Seed: 1})
		servers[host(p)] = srv
		handlers[host(p)] = srv.Handler()
	}

	// Donor precedence per restarting peer. peer2's first donor is
	// peer1 — the one the script kills mid-snapshot-stream — so its
	// warm-start must recover by falling to peer0.
	donors := map[string][]string{
		"peer0": {"http://peer1", "http://peer2"},
		"peer1": {"http://peer0", "http://peer2"},
		"peer2": {"http://peer1", "http://peer0"},
	}

	run := &chaosRun{shipped: map[string][]byte{}}
	var ct *faultinject.ClusterTransport
	restart := func(peer string) http.Handler {
		// A restarting peer warm-starts through the same transport the
		// cluster routes over: its donor fetches claim op indices like
		// any other traffic, and a scripted mid-stream kill can tear
		// them. Warm-start failure is non-fatal — the peer joins cold.
		srv := serve.New(serve.Config{TCoeff: 1, Seed: 1})
		res, werr := WarmStart(context.Background(), srv.Cache(), WarmStartConfig{
			Donors:    donors[peer],
			Transport: ct,
		})
		run.warmLog = append(run.warmLog, fmt.Sprintf("%s warmed=%d donor=%q attempts=%d err=%v",
			peer, res.Entries, res.Donor, len(res.Attempts), werr != nil))
		servers[peer] = srv
		return srv.Handler()
	}

	// The script, at exact global op indices (ops are claimed per
	// transport round trip; local compute claims none):
	//   phase A  ops 0-7    warm traffic, all peers alive
	//   op 8                all three peers die; two requests ride the
	//   phase B  ops 8-13   full ladder down to local compute (3 downs each)
	//   op 14               peer1 restarts; both donors dead (ops 15-16) → cold
	//   phase C  ops 14-27  peer1 is the only live peer and recomputes all six shapes
	//   op 28               peer0 restarts; warm-starts cleanly from peer1 (op 29)
	//   phase D  ops 28-30  peer0 serves its shapes from the shipped cache
	//   op 31               peer1 is armed to die mid-response, then peer2
	//                       restarts: its snapshot fetch from peer1 tears
	//                       (op 32), the fallback donor peer0 ships (op 33)
	//   phase E  ops 31-36  peer2 serves shipped plans; peer1 is down again
	//   op 37               peer1 restarts, warm from peer0 (op 38)
	//   phase F  ops 37-44  full-mesh sweep: every shape a cache hit
	ct = faultinject.NewClusterTransport(handlers, restart,
		faultinject.PeerAction{AtOp: 8, Kind: faultinject.KillPeer, Peer: "peer0"},
		faultinject.PeerAction{AtOp: 8, Kind: faultinject.KillPeer, Peer: "peer1"},
		faultinject.PeerAction{AtOp: 8, Kind: faultinject.KillPeer, Peer: "peer2"},
		faultinject.PeerAction{AtOp: 14, Kind: faultinject.RestartPeer, Peer: "peer1"},
		faultinject.PeerAction{AtOp: 28, Kind: faultinject.RestartPeer, Peer: "peer0"},
		faultinject.PeerAction{AtOp: 31, Kind: faultinject.KillMidResponse, Peer: "peer1", AfterBytes: 200},
		faultinject.PeerAction{AtOp: 31, Kind: faultinject.RestartPeer, Peer: "peer2"},
		faultinject.PeerAction{AtOp: 37, Kind: faultinject.RestartPeer, Peer: "peer1"},
	)

	local := serve.New(serve.Config{TCoeff: 1, Seed: 1})
	router, err := NewRouter(RouterConfig{
		Peers: peers,
		Local: local,
		// Sequential failover and no circuit state: with breakers
		// disabled every request walks the same ladder, so the
		// trajectory is a pure function of the script. (Breaker
		// routing has its own tests.)
		Client: client.Config{Transport: ct, MaxAttempts: 1, PerAttemptTimeout: time.Minute, Breaker: client.BreakerConfig{Threshold: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	shapes := map[string]*catalog.Query{"sA": sA, "sB": sB, "sC": sC, "sD": sD, "sE": sE, "sF": sF}
	var recorded []json.RawMessage
	ctx := context.Background()
	do := func(name string, record string) {
		t.Helper()
		q := shapes[name]
		resp, err := router.Optimize(ctx, q)
		if err != nil {
			t.Fatalf("shape %s at op %d: %v", name, ct.Ops(), err)
		}
		if resp.Explain == "" || len(resp.Order) != len(q.Relations) || resp.Fingerprint == "" {
			t.Fatalf("shape %s at op %d: invalid plan %+v", name, ct.Ops(), resp)
		}
		raw, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		recorded = append(recorded, raw)
		if record != "" {
			run.shipped[record] = raw
		}
	}

	// Phase A: warm every shape on its primary, then two repeat hits.
	for _, n := range []string{"sA", "sB", "sC", "sD", "sE", "sF", "sA", "sC"} {
		do(n, "")
	}
	// Phase B: total peer loss — the ladder must end in local compute,
	// never an error.
	do("sA", "")
	do("sD", "")
	// Phase C: peer1 restarts cold (its donors are still dead) and, as
	// the only live peer, recomputes every shape. The sC response here
	// is the plan the snapshots will ship peer1 → peer0 → peer2.
	do("sB", "")
	do("sD", "")
	do("sA", "")
	do("sC", "chainSource")
	do("sE", "")
	do("sF", "")
	// Phase D: peer0 back, warm from peer1's snapshot.
	do("sA", "")
	do("sE", "")
	// Phase E: peer2 restarts while its first donor dies mid-stream;
	// its first request must already be a warm hit off the fallback
	// donor's snapshot.
	do("sC", "warmServed")
	do("sF", "")
	do("sB", "")
	// Phase F: peer1 back once more; full sweep, everything cached.
	for _, n := range []string{"sD", "sA", "sB", "sC", "sD", "sE", "sF"} {
		do(n, "")
	}

	// The restarted peer2 never ran its own optimizer: every plan it
	// serves came off the shipped snapshot.
	p2 := servers["peer2"]
	if st := p2.Cache().Stats(); st.Warmed == 0 || st.Misses != 0 {
		t.Fatalf("restarted peer2 cache stats %+v: want warmed entries and zero misses", st)
	}

	blob, err := json.Marshal(recorded)
	if err != nil {
		t.Fatal(err)
	}
	run.responses = blob
	run.trajectory = ct.Trajectory()
	run.stats = router.Stats()
	return run
}

// TestClusterChaosScripted is the acceptance run (see file comment).
func TestClusterChaosScripted(t *testing.T) {
	before := runtime.NumGoroutine()

	first := runChaosScript(t)

	// Valid plans under fire is necessary but not sufficient — the
	// script must actually have exercised the ladder.
	if first.stats.LocalFallbacks != 2 {
		t.Fatalf("localFallbacks = %d, want 2 (the all-dead window)", first.stats.LocalFallbacks)
	}
	if first.stats.Failovers == 0 {
		t.Fatal("no failovers: the script never rode the ring ladder")
	}
	tr := first.trajectory
	for _, want := range []string{
		"!kill peer0", "!kill peer1", "!kill peer2", // total loss
		"!restart peer1", "!restart peer0", "!restart peer2",
		"!arm-torn peer1 after=200",
		"GET peer1/snapshot -> torn@200", // donor died mid-snapshot-stream
		"GET peer0/snapshot -> 200",      // fallback donor shipped
	} {
		if !strings.Contains(tr, want) {
			t.Fatalf("trajectory missing %q:\n%s", want, tr)
		}
	}
	// peer2's warm-start recovered from the torn stream via its second
	// donor; peer1's first (cold) restart failed both donors non-fatally.
	if len(first.warmLog) != 4 {
		t.Fatalf("warm log %v, want 4 restarts", first.warmLog)
	}
	for i, want := range []string{
		`peer1 warmed=0 donor="" attempts=2 err=true`,
		`peer0 warmed=6 donor="http://peer1" attempts=0 err=false`,
		`peer2 warmed=6 donor="http://peer0" attempts=1 err=false`,
		`peer1 warmed=6 donor="http://peer0" attempts=0 err=false`,
	} {
		if first.warmLog[i] != want {
			t.Fatalf("warm log[%d] = %q, want %q\nfull: %v", i, first.warmLog[i], want, first.warmLog)
		}
	}

	// The restarted peer serves the shipped plan byte-identically as a
	// cache hit: same plan as its donor chain's source, flipped to
	// cacheHit (it did no work of its own).
	source := string(first.shipped["chainSource"])
	served := string(first.shipped["warmServed"])
	wantServed := strings.Replace(source, `"cacheHit":false`, `"cacheHit":true`, 1)
	if source == served {
		t.Fatal("chain source was already a cache hit — phase C did not recompute sC")
	}
	if served != wantServed {
		t.Fatalf("warm-served plan drifted from the shipped one:\nshipped: %s\nserved:  %s", source, served)
	}

	// Determinism: a second same-seed run reproduces the trajectory and
	// every response byte for byte.
	second := runChaosScript(t)
	if first.trajectory != second.trajectory {
		t.Fatalf("same-seed trajectories differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first.trajectory, second.trajectory)
	}
	if string(first.responses) != string(second.responses) {
		t.Fatal("same-seed response sequences differ")
	}
	if first.stats.Failovers != second.stats.Failovers || first.stats.LocalFallbacks != second.stats.LocalFallbacks {
		t.Fatalf("same-seed router stats differ: %+v vs %+v", first.stats, second.stats)
	}

	// No goroutines may survive the cluster's lifetime.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}
