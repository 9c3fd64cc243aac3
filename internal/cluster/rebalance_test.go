package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"joinopt/internal/faultinject"
	"joinopt/internal/fingerprint"
	"joinopt/internal/plancache"
	"joinopt/internal/serve"
	"joinopt/internal/telemetry"
)

// rebalanceFixture is a two-real-peer cluster plus a rebalancer on
// peer0, primed so peer0 owns warm arcs that a weight bump on peer1
// will pull away. Both peers' caches hold capacity entries (0 = the
// plancache default).
type rebalanceFixture struct {
	ct       *faultinject.ClusterTransport
	owner    *serve.Server // peer0, the rebalancing node
	receiver *serve.Server // peer1, the node gaining the arcs
	rb       *Rebalancer
	e0, e1   *Epoch // e1 bumps peer1's weight
}

func newRebalanceFixture(t *testing.T, primed, capacity int) *rebalanceFixture {
	t.Helper()
	scfg := serve.Config{TCoeff: 1, Seed: 1, Cache: plancache.Config{Capacity: capacity}}
	f := &rebalanceFixture{
		owner:    serve.New(scfg),
		receiver: serve.New(scfg),
	}
	f.ct = faultinject.NewClusterTransport(map[string]http.Handler{
		"peer0": f.owner.Handler(),
		"peer1": f.receiver.Handler(),
	}, nil)
	var err error
	if f.e0, err = StaticEpoch([]string{"http://peer0", "http://peer1"}, 0); err != nil {
		t.Fatal(err)
	}
	if f.e1, err = NewEpoch(1, []Member{
		{URL: "http://peer0"},
		{URL: "http://peer1", Weight: 8},
	}, 0); err != nil {
		t.Fatal(err)
	}
	if f.rb, err = NewRebalancer(RebalanceConfig{
		Self:      "http://peer0",
		Cache:     f.owner.Cache(),
		Transport: f.ct,
		Sleep:     func(context.Context, time.Duration) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}

	// Prime peer0 with plans it owns under e0 that move to peer1 under
	// e1 (weight bump only ever pulls arcs onto peer1).
	ctx := context.Background()
	planted := 0
	for n := 7; planted < primed; n++ {
		q := queryOwnedBy(t, f.e0.Ring(), "http://peer0", n)
		fp, _ := fingerprint.Canonical(q)
		if f.e1.Ring().Primary(fp) != "http://peer1" {
			continue
		}
		if _, err := f.owner.OptimizeQuery(ctx, q); err != nil {
			t.Fatal(err)
		}
		planted++
	}
	if _, err := f.rb.Apply(ctx, f.e0); err != nil { // bootstrap: adopts, no diff
		t.Fatal(err)
	}
	return f
}

func TestRebalancerPushesAndEvictsMovedArcs(t *testing.T) {
	f := newRebalanceFixture(t, 3, 0)
	before := len(f.owner.Cache().Dump())

	res, err := f.rb.Apply(context.Background(), f.e1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.Pushed["http://peer1"] != 3 || res.Evicted != 3 || len(res.Failed) != 0 {
		t.Fatalf("result %+v, want 3 entries pushed to peer1 and 3 evicted", res)
	}
	// Eviction hit exactly the moved arcs — everything else stayed.
	if got := len(f.owner.Cache().Dump()); got != before-3 {
		t.Fatalf("owner cache %d entries, want %d", got, before-3)
	}
	if st := f.owner.Cache().Stats(); st.TargetedEvictions != 3 {
		t.Fatalf("targeted evictions = %d, want 3", st.TargetedEvictions)
	}
	// The receiver warmed the pushed entries without computing: its
	// next request for a moved arc is a warm hit, not a cold miss.
	if st := f.receiver.Cache().Stats(); st.Warmed != 3 || st.Misses != 0 {
		t.Fatalf("receiver stats %+v, want 3 warmed and no misses", st)
	}

	// Re-applying the same epoch (or an older one) is a no-op.
	res2, err := f.rb.Apply(context.Background(), f.e1)
	if err != nil || res2.Evicted != 0 || len(res2.Pushed) != 0 {
		t.Fatalf("re-apply: %+v err=%v", res2, err)
	}
}

func TestRebalancerKeepsEntriesWhenPushFails(t *testing.T) {
	f := newRebalanceFixture(t, 2, 0)
	before := len(f.owner.Cache().Dump())

	// The destination is dead: pushes fail after retries, and the
	// no-longer-owned entries must stay local (stale beats gone).
	f.ct.Kill("peer1")
	res, err := f.rb.Apply(context.Background(), f.e1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != "http://peer1" {
		t.Fatalf("result %+v, want the push to peer1 recorded as failed", res)
	}
	if res.Evicted != 0 || len(f.owner.Cache().Dump()) != before {
		t.Fatalf("evicted %d of %d entries despite the failed push", res.Evicted, before)
	}
}

// TestRebalancerBoundedQueueShipsOverflowNextEpoch: one epoch
// transition queues at most pushQueueCap entries. The overflow is
// counted (RebalanceResult.Dropped and ljq_arc_push_dropped_entries_total),
// stays local — neither pushed nor evicted — and ships on the next
// epoch, because it is still held-but-not-owned.
func TestRebalancerBoundedQueueShipsOverflowNextEpoch(t *testing.T) {
	const overflow = 100
	f := newRebalanceFixture(t, 0, 1<<16)
	reg := telemetry.NewRegistry()
	f.rb.RegisterMetrics(reg)

	// Warm synthetic entries that peer1 owns under e1 straight into the
	// owner's cache: no optimizer runs.
	for i, warmed := 1, 0; warmed < pushQueueCap+overflow; i++ {
		e := wsEntry(i)
		if f.e1.Ring().Primary(e.Fingerprint) != "http://peer1" {
			continue
		}
		if !f.owner.Cache().Warm(e) {
			t.Fatalf("owner cache refused synthetic entry %d", i)
		}
		warmed++
	}
	dropped := func() string {
		t.Helper()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "ljq_arc_push_dropped_entries_total ") {
				return line
			}
		}
		t.Fatalf("ljq_arc_push_dropped_entries_total not exported:\n%s", sb.String())
		return ""
	}

	ctx := context.Background()
	res, err := f.rb.Apply(ctx, f.e1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != overflow || res.Pushed["http://peer1"] != pushQueueCap || res.Evicted != pushQueueCap || len(res.Failed) != 0 {
		t.Fatalf("result %+v, want %d pushed and evicted, %d dropped", res, pushQueueCap, overflow)
	}
	if got, want := dropped(), fmt.Sprintf("ljq_arc_push_dropped_entries_total %d", overflow); got != want {
		t.Fatalf("metric %q, want %q", got, want)
	}
	// The overflow stayed on the owner and never reached the receiver.
	kept := f.owner.Cache().Dump()
	if len(kept) != overflow {
		t.Fatalf("owner kept %d entries, want the %d dropped ones", len(kept), overflow)
	}
	for _, e := range kept {
		if _, ok := f.receiver.Cache().Peek(e.Fingerprint); ok {
			t.Fatalf("dropped entry %x reached the receiver", e.Fingerprint[:8])
		}
	}
	if st := f.receiver.Cache().Stats(); st.Warmed != pushQueueCap {
		t.Fatalf("receiver warmed %d entries, want %d", st.Warmed, pushQueueCap)
	}

	// The next epoch (same roster) ships the overflow.
	e2, err := NewEpoch(2, f.e1.Members, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err = f.rb.Apply(ctx, e2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 || res.Pushed["http://peer1"] != overflow || res.Evicted != overflow {
		t.Fatalf("next epoch %+v, want the %d dropped entries pushed and evicted", res, overflow)
	}
	if n := len(f.owner.Cache().Dump()); n != 0 {
		t.Fatalf("owner still holds %d moved entries", n)
	}
	for _, e := range kept {
		if _, ok := f.receiver.Cache().Peek(e.Fingerprint); !ok {
			t.Fatalf("entry %x did not ship on the next epoch", e.Fingerprint[:8])
		}
	}
	if got, want := dropped(), fmt.Sprintf("ljq_arc_push_dropped_entries_total %d", overflow); got != want {
		t.Fatalf("metric %q after the next epoch, want %q", got, want)
	}
}
