package cluster

// churn_chaos_test.go is the dynamic-membership acceptance test: the
// ring itself changes while scripted traffic flows — a peer joins, an
// arc moves under a weight bump (with the destination killed mid-arc-
// push), a peer leaves — and the cluster must hold the anytime contract
// throughout: every request a valid plan, zero surfaced errors,
// byte-identical same-seed trajectory and response logs, a joined peer
// serving pushed arcs without a cold miss, and epoch changes evicting
// exactly the arcs each peer no longer owns.
//
// Interleaving note: a scripted action fires when its op index is
// claimed, BEFORE that request dispatches — but the router picked the
// claiming request's candidates from the epoch loaded at Optimize
// start. The request at an action's op therefore routes under the OLD
// epoch (the "in-flight requests finish on their starting epoch"
// invariant). The script exploits this by having every membership
// action claimed by qd, the control shape whose owner never changes.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
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

// findQuery scans seeds for a query satisfying pred on its canonical
// fingerprint, pinning arc placement across the test's epoch chain.
func findQuery(t *testing.T, n int, pred func(fp fingerprint.Fingerprint) bool) *catalog.Query {
	t.Helper()
	for seed := int64(1); seed < 20000; seed++ {
		q := workload.Default().Generate(n, rand.New(rand.NewSource(seed)))
		fp, _ := fingerprint.Canonical(q)
		if pred(fp) {
			return q
		}
	}
	t.Fatalf("no %d-join query found for placement predicate", n)
	return nil
}

// mustFP is fingerprint.Canonical without the order, for placement
// predicates.
func mustFP(q *catalog.Query) fingerprint.Fingerprint {
	fp, _ := fingerprint.Canonical(q)
	return fp
}

// churnWorld is the mutable cluster the membership hook drives: live
// servers, their rebalancers, the roster, and the epoch counter.
type churnWorld struct {
	t           *testing.T
	ct          *faultinject.ClusterTransport
	router      *Router
	servers     map[string]*serve.Server // by base URL
	rebalancers map[string]*Rebalancer   // by base URL
	roster      []Member
	seq         uint64
	rebalLog    []string
}

func (w *churnWorld) newRebalancer(url string) *Rebalancer {
	rb, err := NewRebalancer(RebalanceConfig{
		Self:      url,
		Cache:     w.servers[url].Cache(),
		Transport: w.ct,
		Sleep:     func(context.Context, time.Duration) error { return nil },
		Logf: func(format string, args ...any) {
			w.rebalLog = append(w.rebalLog, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return rb
}

// applyAll mints the next epoch from the roster and applies it across
// the world: the leaver (if any) hands off first, then the remaining
// serving nodes in sorted URL order, then the joiner (if any)
// bootstraps, and finally the router swaps rings.
func (w *churnWorld) applyAll(ctx context.Context, leaver, joiner string) {
	w.seq++
	e, err := NewEpoch(w.seq, w.roster, 0)
	if err != nil {
		w.t.Fatal(err)
	}
	order := make([]string, 0, len(w.rebalancers))
	for url := range w.rebalancers {
		if url != leaver {
			order = append(order, url)
		}
	}
	sort.Strings(order)
	if leaver != "" {
		order = append([]string{leaver}, order...)
	}
	for _, url := range order {
		res, err := w.rebalancers[url].Apply(ctx, e)
		if err != nil {
			w.t.Fatalf("rebalance %s to %s: %v", url, e, err)
		}
		w.rebalLog = append(w.rebalLog, fmt.Sprintf("%s@%s pushed=%v failed=%v evicted=%d",
			url, e, res.Pushed, res.Failed, res.Evicted))
	}
	if joiner != "" {
		w.rebalancers[joiner] = w.newRebalancer(joiner)
		if _, err := w.rebalancers[joiner].Apply(ctx, e); err != nil {
			w.t.Fatal(err)
		}
	}
	if leaver != "" {
		delete(w.rebalancers, leaver)
	}
	if err := w.router.ApplyEpoch(e); err != nil {
		w.t.Fatal(err)
	}
}

// handleMembership is the transport's membership hook: scripted
// AddPeer/RemovePeer/MoveArc actions mutate the roster and apply the
// resulting epoch across the whole world. It runs on the claiming
// request's goroutine, so epoch application — including the recursive
// arc pushes it triggers — is strictly ordered within the op stream.
func (w *churnWorld) handleMembership(a faultinject.PeerAction) {
	ctx := context.Background()
	url := "http://" + a.Peer
	switch a.Kind {
	case faultinject.AddPeer:
		srv := serve.New(serve.Config{TCoeff: 1, Seed: 1})
		w.servers[url] = srv
		w.ct.Register(a.Peer, srv.Handler())
		weight := a.Weight
		if weight <= 0 {
			weight = 1
		}
		w.roster = append(w.roster, Member{URL: url, Weight: weight})
		w.applyAll(ctx, "", url)
	case faultinject.MoveArc:
		for i := range w.roster {
			if w.roster[i].URL == url {
				w.roster[i].Weight = a.Weight
			}
		}
		w.applyAll(ctx, "", "")
	case faultinject.RemovePeer:
		kept := w.roster[:0]
		for _, m := range w.roster {
			if m.URL != url {
				kept = append(kept, m)
			}
		}
		w.roster = kept
		w.applyAll(ctx, url, "")
		w.ct.Kill(a.Peer) // the leaver's process exits after handoff
	}
}

// churnRun is one scripted churn lifetime's artifacts.
type churnRun struct {
	trajectory string
	responses  []byte
	rebalLog   string
	stats      []byte // JSON-marshaled RouterStats
	world      *churnWorld
	final      *Epoch
}

// runChurnScript builds the 3-peer world and drives the scripted
// join / move-arc (torn mid-push) / leave sequence through live
// traffic. Fully seeded and sequential: two invocations must agree
// byte for byte.
func runChurnScript(t *testing.T) *churnRun {
	t.Helper()
	peers := []string{"http://peer0", "http://peer1", "http://peer2"}

	// The test's epoch chain, precomputed so query placement can be
	// pinned before any traffic flows:
	//   e0 {p0 p1 p2}   e1 +p3   e2 p3*4   e3 p3*5   e4 -p1
	mk := func(seq uint64, ms ...Member) *Epoch {
		e, err := NewEpoch(seq, ms, 0)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	m := func(url string, wgt int) Member { return Member{URL: url, Weight: wgt} }
	e0 := mk(0, m("http://peer0", 1), m("http://peer1", 1), m("http://peer2", 1))
	e1 := mk(1, m("http://peer0", 1), m("http://peer1", 1), m("http://peer2", 1), m("http://peer3", 1))
	e2 := mk(2, m("http://peer0", 1), m("http://peer1", 1), m("http://peer2", 1), m("http://peer3", 4))
	e3 := mk(3, m("http://peer0", 1), m("http://peer1", 1), m("http://peer2", 1), m("http://peer3", 5))
	e4 := mk(4, m("http://peer0", 1), m("http://peer2", 1), m("http://peer3", 5))

	// Four shapes with pinned trajectories through the epoch chain
	// (weight-monotonicity makes the unconstrained epochs follow: an
	// arc on p3 stays on p3 as p3's weight grows):
	//   qa: p0-owned, moves to p3 at the join            (push at join)
	//   qb: p1-owned through e3, reassigned at the leave (push at leave)
	//   qc: p2-owned until the w4 bump moves it to p3; its e2 failover
	//       successor is p2 itself, so while p3 is down after the torn
	//       push the OLD owner serves it warm (stale beats gone)
	//   qd: p0-owned under every epoch — the control shape that claims
	//       every membership action's op
	qa := findQuery(t, 7, func(fp fingerprint.Fingerprint) bool {
		return e0.Ring().Primary(fp) == "http://peer0" && e1.Ring().Primary(fp) == "http://peer3"
	})
	qb := findQuery(t, 8, func(fp fingerprint.Fingerprint) bool {
		return e0.Ring().Primary(fp) == "http://peer1" && e3.Ring().Primary(fp) == "http://peer1"
	})
	qc := findQuery(t, 9, func(fp fingerprint.Fingerprint) bool {
		if e1.Ring().Primary(fp) != "http://peer2" || e2.Ring().Primary(fp) != "http://peer3" {
			return false
		}
		succ := e2.Ring().Successors(fp, 2)
		return len(succ) == 2 && succ[1] == "http://peer2"
	})
	qd := findQuery(t, 7, func(fp fingerprint.Fingerprint) bool {
		for _, e := range []*Epoch{e0, e1, e2, e3, e4} {
			if e.Ring().Primary(fp) != "http://peer0" {
				return false
			}
		}
		return true
	})
	if e4.Ring().Primary(mustFP(qb)) == "http://peer1" {
		t.Fatal("qb still owned by the departed peer under e4")
	}

	world := &churnWorld{
		t:           t,
		servers:     map[string]*serve.Server{},
		rebalancers: map[string]*Rebalancer{},
	}
	handlers := map[string]http.Handler{}
	for _, p := range peers {
		srv := serve.New(serve.Config{TCoeff: 1, Seed: 1})
		world.servers[p] = srv
		handlers[hostOf(p)] = srv.Handler()
		world.roster = append(world.roster, Member{URL: p, Weight: 1})
	}

	// Restart returns the peer's existing handler: the process came
	// back with its cache intact (crash recovery has its own chaos
	// test; this one is about membership).
	restart := func(peer string) http.Handler { return world.servers["http://"+peer].Handler() }

	// The script, at exact global op indices (requests and recursive
	// arc pushes each claim one; actions fire before the claiming op
	// dispatches):
	//   ops 0-3   qa qb qc qd warm their e0 primaries
	//   op 4      AddPeer p3 → e1; p0 pushes qa to p3 (op 5) and
	//             evicts it; the op-4 request (qd) proceeds on p0
	//   op 6      qa hits p3 warm — the joined peer's first request
	//             for a pushed arc is not a cold miss
	//   ops 7-8   qb qc steady-state hits
	//   op 9      KillMidResponse p3 arms, then MoveArc p3*4 → e2;
	//             p2's push of qc tears mid-response (op 10; p3's
	//             handler DID run, so p3 warmed qc) and the retries
	//             find p3 dead (ops 11-12) — push fails, qc stays on
	//             p2; the op-9 request (qd) proceeds on p0
	//   op 13     qc routes to its e2 owner p3, finds it down, and
	//             fails over (op 14) to successor p2 — warm
	//   op 15     RestartPeer p3 (cache intact); the op-15 request
	//             (qb) proceeds on p1
	//   op 16     MoveArc p3*5 → e3; p2 retries qc to p3 (op 17),
	//             acked this time, and evicts it; op-16 request = qd
	//   op 18     qc hits p3 warm — the torn push already warmed it,
	//             and the acked retry was an idempotent refresh
	//   op 19     RemovePeer p1 → e4; p1 pushes qb to its new owner
	//             (op 20), evicts it, then dies; op-19 request = qd
	//   op 21     qb hits its new owner warm
	//   ops 22-24 final sweep qa qc qd — all warm
	world.ct = faultinject.NewClusterTransport(handlers, restart,
		faultinject.PeerAction{AtOp: 4, Kind: faultinject.AddPeer, Peer: "peer3", Weight: 1},
		faultinject.PeerAction{AtOp: 9, Kind: faultinject.KillMidResponse, Peer: "peer3", AfterBytes: 150},
		faultinject.PeerAction{AtOp: 9, Kind: faultinject.MoveArc, Peer: "peer3", Weight: 4},
		faultinject.PeerAction{AtOp: 15, Kind: faultinject.RestartPeer, Peer: "peer3"},
		faultinject.PeerAction{AtOp: 16, Kind: faultinject.MoveArc, Peer: "peer3", Weight: 5},
		faultinject.PeerAction{AtOp: 19, Kind: faultinject.RemovePeer, Peer: "peer1"},
	)
	world.ct.SetMembershipHook(world.handleMembership)

	local := serve.New(serve.Config{TCoeff: 1, Seed: 1})
	router, err := NewRouter(RouterConfig{
		Peers: peers,
		Local: local,
		// Deterministic mode, as in the static chaos test: sequential
		// failover, no circuit state, single attempt per peer.
		Client: client.Config{Transport: world.ct, MaxAttempts: 1, PerAttemptTimeout: time.Minute, Breaker: client.BreakerConfig{Threshold: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	world.router = router
	for _, p := range peers {
		world.rebalancers[p] = world.newRebalancer(p)
		if _, err := world.rebalancers[p].Apply(context.Background(), router.Epoch()); err != nil {
			t.Fatal(err)
		}
	}

	shapes := map[string]*catalog.Query{"qa": qa, "qb": qb, "qc": qc, "qd": qd}
	var recorded []json.RawMessage
	ctx := context.Background()
	do := func(name string, wantHit bool) {
		t.Helper()
		resp, err := router.Optimize(ctx, shapes[name])
		if err != nil {
			t.Fatalf("shape %s at op %d: surfaced error %v", name, world.ct.Ops(), err)
		}
		if resp.Explain == "" || len(resp.Order) == 0 || resp.Fingerprint == "" || resp.Degraded {
			t.Fatalf("shape %s at op %d: invalid plan %+v", name, world.ct.Ops(), resp)
		}
		if wantHit && !resp.CacheHit {
			t.Fatalf("shape %s at op %d: want a warm cache hit, got a cold computation", name, world.ct.Ops())
		}
		raw, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		recorded = append(recorded, raw)
	}

	do("qa", false) // ops 0-3: warm the shapes on their e0 owners
	do("qb", false)
	do("qc", false)
	do("qd", false)
	do("qd", true) // op 4: claims the join; qa pushed to p3 at op 5
	do("qa", true) // op 6: the joined peer serves its pushed arc warm
	do("qb", true) // op 7
	do("qc", true) // op 8
	do("qd", true) // op 9: claims the torn-push weight bump (ops 10-12)
	do("qc", true) // op 13: p3 down → failover (op 14) to warm old owner
	do("qb", true) // op 15: claims p3's restart
	do("qd", true) // op 16: claims the w5 bump; qc push retried (op 17)
	do("qc", true) // op 18: p3 serves qc warm — no cold miss anywhere
	do("qd", true) // op 19: claims the leave; qb handed off (op 20)
	do("qb", true) // op 21: qb's new owner serves it warm
	do("qa", true) // ops 22-24: final sweep, every shape warm
	do("qc", true)
	do("qd", true)

	// The joined peer never computed anything: both its arcs arrived
	// by push (the join push and the torn-then-retried move), and
	// every request it served was a warm hit.
	p3 := world.servers["http://peer3"]
	if st := p3.Cache().Stats(); st.Misses != 0 || st.Warmed == 0 {
		t.Fatalf("joined peer stats %+v: want pushed-arc hits with zero cold misses", st)
	}

	blob, err := json.Marshal(recorded)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := json.Marshal(router.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return &churnRun{
		trajectory: world.ct.Trajectory(),
		responses:  blob,
		rebalLog:   strings.Join(world.rebalLog, "\n"),
		stats:      stats,
		world:      world,
		final:      router.Epoch(),
	}
}

// TestMembershipChurnChaos is the dynamic-membership acceptance run
// (see file comment). CI runs it under -race in the cluster-churn job.
func TestMembershipChurnChaos(t *testing.T) {
	before := runtime.NumGoroutine()

	first := runChurnScript(t)

	// The run exercised every membership path with the expected router
	// counters: epochs 0-4 applied, exactly one failover (the torn-push
	// window), and the ring never exhausted down to the local rung.
	st := first.world.router.Stats()
	if st.Epoch != 4 || st.EpochApplies != 5 {
		t.Fatalf("stats %+v, want epochs 0-4 applied", st)
	}
	if st.LocalFallbacks != 0 {
		t.Fatalf("localFallbacks = %d: membership churn must never exhaust the ring", st.LocalFallbacks)
	}
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want exactly the torn-push window's one", st.Failovers)
	}

	tr := first.trajectory
	for _, want := range []string{
		"!add-peer peer3",
		"!register peer3",
		"!arm-torn peer3 after=150",
		"POST peer3/snapshot/arc -> torn@", // destination died mid-arc-push
		"POST peer3/snapshot/arc -> down",  // the bounded retries found it dead
		"!move-arc peer3 weight=4",
		"POST peer3/optimize -> down", // the failover window
		"!restart peer3",
		"!move-arc peer3 weight=5",
		"POST peer3/snapshot/arc -> 200", // the join push and the acked retry
		"!remove-peer peer1",
		"!kill peer1", // after its handoff push (counted below)
	} {
		if !strings.Contains(tr, want) {
			t.Fatalf("trajectory missing %q:\n%s", want, tr)
		}
	}
	// Push accounting, exactly: the join push, the acked retry after
	// the restart, and the leaver's handoff succeed; the torn attempt
	// and its two dead retries fail. And no request may ever have found
	// the departed peer1: it died only after handing off its arcs.
	if got := strings.Count(tr, "/snapshot/arc -> 200"); got != 3 {
		t.Fatalf("%d acked arc pushes, want 3:\n%s", got, tr)
	}
	if got := strings.Count(tr, "/snapshot/arc -> torn@"); got != 1 {
		t.Fatalf("%d torn arc pushes, want 1:\n%s", got, tr)
	}
	if got := strings.Count(tr, "peer3/snapshot/arc -> down"); got != 2 {
		t.Fatalf("%d dead-retry arc pushes, want 2:\n%s", got, tr)
	}
	if strings.Contains(tr, "peer1/optimize -> down") {
		t.Fatalf("a request hit the departed peer1 after its handoff:\n%s", tr)
	}

	// Epoch changes evicted exactly the arcs each node no longer owns:
	// one targeted eviction per handoff (qa at the join, qc at the
	// acked retry, qb at the leave), zero capacity evictions, the
	// departed peer empty, and every surviving entry owned by its
	// holder under the final ring.
	finalRing := first.final.Ring()
	wantEvictions := map[string]uint64{
		"http://peer0": 1, // qa → p3 at e1
		"http://peer1": 1, // qb → its e4 owner at the leave
		"http://peer2": 1, // qc → p3 at e3 (the e2 push tore and kept it)
		"http://peer3": 0,
	}
	entries := 0
	for url, srv := range first.world.servers {
		cst := srv.Cache().Stats()
		if cst.TargetedEvictions != wantEvictions[url] {
			t.Fatalf("%s targeted evictions = %d, want %d", url, cst.TargetedEvictions, wantEvictions[url])
		}
		if cst.Evictions != 0 {
			t.Fatalf("%s capacity evictions = %d, want 0", url, cst.Evictions)
		}
		if url == "http://peer1" {
			if cst.Entries != 0 {
				t.Fatalf("departed peer1 still holds %d entries after handoff", cst.Entries)
			}
			continue
		}
		entries += cst.Entries
		for _, e := range srv.Cache().Dump() {
			if owner := finalRing.Primary(e.Fingerprint); owner != url {
				t.Fatalf("%s still holds %s's arc %s after the final epoch", url, owner, e.Fingerprint)
			}
		}
	}
	if entries != 4 {
		t.Fatalf("survivors hold %d entries, want the 4 shapes exactly once each", entries)
	}

	// Determinism: a second same-seed run reproduces the trajectory,
	// the rebalance log, the router counters, and every response byte
	// for byte.
	second := runChurnScript(t)
	if first.trajectory != second.trajectory {
		t.Fatalf("same-seed trajectories differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first.trajectory, second.trajectory)
	}
	if string(first.responses) != string(second.responses) {
		t.Fatal("same-seed response sequences differ")
	}
	if first.rebalLog != second.rebalLog {
		t.Fatalf("same-seed rebalance logs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first.rebalLog, second.rebalLog)
	}
	if string(first.stats) != string(second.stats) {
		t.Fatalf("same-seed router stats differ:\n%s\nvs\n%s", first.stats, second.stats)
	}

	// No goroutines may survive the churn.
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
