package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/plan"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	w := workloadByName("miss-overflow")
	a := schedule(w, 7, phaseFixed, 2*time.Second, w.Rate)
	b := schedule(w, 7, phaseFixed, 2*time.Second, w.Rate)
	if len(a) < 1000 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d and %d requests)", len(a), len(b))
	}
	if c := schedule(w, 8, phaseFixed, 2*time.Second, w.Rate); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if !reflect.DeepEqual(sequence(w, 7, phaseClosed, 500), sequence(w, 7, phaseClosed, 500)) {
		t.Fatal("same seed gave different closed-loop sequences")
	}
	fresh := map[int32]bool{}
	for _, r := range a {
		if r.Shape < 0 {
			if fresh[r.Shape] {
				t.Fatalf("fresh shape %d repeated", r.Shape)
			}
			fresh[r.Shape] = true
		}
	}
	if share := float64(len(fresh)) / float64(len(a)); math.Abs(share-w.Fresh) > 0.05 {
		t.Errorf("fresh share %.3f, want about %.2f", share, w.Fresh)
	}
}

func TestYardstickIsInterleavedByDueTime(t *testing.T) {
	w := workloadByName("hit-json")
	reqs := schedule(w, 5, phaseFixed, 2*time.Second, w.Rate)
	merged := withYardstick(reqs, 5, phaseFixed, 2*time.Second, w.Rate)
	var ljqd []request
	for i, r := range merged {
		if i > 0 && r.Due < merged[i-1].Due {
			t.Fatalf("request %d is due before its predecessor", i)
		}
		if r.Shape != yardShape {
			ljqd = append(ljqd, r)
		}
	}
	if !reflect.DeepEqual(ljqd, reqs) {
		t.Fatal("merging changed the ljqd requests")
	}
	if share := float64(len(merged)-len(reqs)) / float64(len(reqs)); math.Abs(share-1.0/yardShare) > 0.03 {
		t.Errorf("yardstick share %.3f, want about %.2f", share, 1.0/yardShare)
	}
}

func TestPoolWorkloadsShareTheirSequence(t *testing.T) {
	hit, routed := workloadByName("hit-json"), workloadByName("route-cluster")
	a := schedule(hit, 3, phaseFixed, time.Second, hit.Rate)
	b := schedule(routed, 3, phaseFixed, time.Second, routed.Rate)
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i].Shape != b[i].Shape {
			t.Fatalf("request %d: hit-json sends shape %d, route-cluster %d", i, a[i].Shape, b[i].Shape)
		}
	}
}

func TestPoolIsFixedFreshShapesFollowTheSeed(t *testing.T) {
	w := &workload{Pool: 3, NMin: 8, NMax: 12, PoolKind: 9}
	p1, p2 := newPool(w, 1), newPool(w, 2)
	if !reflect.DeepEqual(p1.query(2), p2.query(2)) {
		t.Error("a pool shape depends on the run seed")
	}
	if reflect.DeepEqual(p1.query(-5), p2.query(-5)) {
		t.Error("a fresh shape does not depend on the run seed")
	}
	if !reflect.DeepEqual(p1.query(-5), p1.query(-5)) {
		t.Error("a fresh shape is not rebuilt identically")
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 1000 requests, 11 of them failed: the p99 (10 samples beyond) is a
	// failure, the median is not.
	recs := make([]record, 1000)
	for i := range recs {
		recs[i] = record{OK: i >= 11, Lat: time.Duration(i+1) * time.Millisecond}
	}
	lat := latencies(recs)
	if p := percentile(lat, 0.99); !math.IsInf(p, 1) {
		t.Errorf("p99 with 11 failures in 1000 = %v, want +Inf", p)
	}
	if p := percentile(lat, 0.5); p != 511 {
		t.Errorf("p50 = %v ms, want 511", p)
	}
	recs[0].OK, recs[1].OK = true, true // 9 failures: p99 is a success
	if p := percentile(latencies(recs), 0.99); p != 999 {
		t.Errorf("p99 with 9 failures = %v ms, want 999", p)
	}
	if finite(math.Inf(1)) != math.MaxFloat64 {
		t.Error("+Inf must be reported as the largest float")
	}
}

func TestServiceTimesLeaveOutTheWait(t *testing.T) {
	recs := []record{
		{OK: true, Lat: 5 * time.Millisecond, Wait: 4 * time.Millisecond},
		{OK: true, Lat: 2 * time.Millisecond},
		{OK: false, Lat: time.Millisecond},
	}
	if got := serviceTimes(recs); got[0] != 1 || got[1] != 2 || !math.IsInf(got[2], 1) {
		t.Errorf("serviceTimes = %v, want [1 2 +Inf]", got)
	}
}

func TestPlanCostRatioWeighsShapesByTheirProbability(t *testing.T) {
	// Zipf s=1 over two shapes: P(0) = 2/3, P(1) = 1/3. Shape 0 is served
	// at 1/8 of its reference cost three times, shape 1 at 1/2 once; the
	// request count does not matter, the probability does.
	w := &workload{Pool: 2, Zipf: 1}
	recs := []record{{OK: true, Shape: 0}, {OK: true, Shape: 0}, {OK: true, Shape: 0}, {OK: true, Shape: 1}, {Shape: 1}}
	recost := []float64{1, 2, 4, 5, 1000}
	ref := []float64{8, 16, 32, 10, 1}
	want := math.Exp(2.0/3*math.Log(1.0/8) + 1.0/3*math.Log(0.5))
	if got := planCostRatio(w, recs, recost, ref); math.Abs(got-want) > 1e-12 {
		t.Errorf("planCostRatio = %v, want %v", got, want)
	}
	// Fresh shapes share the fresh weight equally.
	w = &workload{Pool: 4, Fresh: 0.5}
	recs = []record{{OK: true, Shape: -1}, {OK: true, Shape: -2}, {OK: true, Shape: 3}}
	recost, ref = []float64{1, 4, 2}, []float64{1, 1, 1}
	want = math.Exp((0.25*math.Log(1) + 0.25*math.Log(4) + 0.125*math.Log(2)) / 0.625)
	if got := planCostRatio(w, recs, recost, ref); math.Abs(got-want) > 1e-12 {
		t.Errorf("planCostRatio with fresh shapes = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, m, q3 := quartiles(vs); q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, m, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || m != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, m, q3)
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (ljqd (x) y) S 1 4242 4242 0 -1 4194560 1200 0 0 0 157 43 0 0 20 0 9 0 123 1000 300 18446744073709551615"
	if got, err := parseStatCPU(stat); err != nil || got != 2*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 2s (157+43 ticks)", got, err)
	}
	if _, err := parseStatCPU("4242 (ljqd) S 1"); err == nil {
		t.Error("a truncated stat line parsed")
	}
	status := "Name:\tljqd\nVmPeak:\t  812340 kB\nVmHWM:\t   17896 kB\nVmRSS:\t   17000 kB\n"
	if got, err := parseProcField(status, "VmHWM"); err != nil || got != 17896 {
		t.Errorf("VmHWM = %d, %v; want 17896", got, err)
	}
	io := "rchar: 3980\nwchar: 10\nread_bytes: 0\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n"
	if got, err := parseProcField(io, "write_bytes"); err != nil || got != 8192 {
		t.Errorf("write_bytes = %d, %v; want 8192", got, err)
	}
	if _, err := parseProcField(io, "VmHWM"); err == nil {
		t.Error("a missing field parsed")
	}
	if got, err := parseSchedstat("123456789 2000 17\n"); err != nil || got != 123456789 {
		t.Errorf("schedstat = %v, %v; want 123456789ns", got, err)
	}
	if _, err := parseSchedstat(""); err == nil {
		t.Error("an empty schedstat parsed")
	}
	heap := "heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 123\n# Mallocs = 987654\n# Frees = 5\n"
	if got, err := parseMallocs(strings.NewReader(heap)); err != nil || got != 987654 {
		t.Errorf("Mallocs = %d, %v; want 987654", got, err)
	}
	if _, err := parseMallocs(strings.NewReader("# Frees = 5\n")); err == nil {
		t.Error("a profile without Mallocs parsed")
	}
}

// servedRecord is a correct tier-2 response for q: the identity order,
// which the §5 generator keeps valid, priced by the bench.
func servedRecord(t *testing.T, q *catalog.Query) (*pricer, record) {
	t.Helper()
	pr := newPricer(q)
	order := make([]int, q.NumRelations())
	perm := make(plan.Perm, len(order))
	for i := range order {
		order[i], perm[i] = i, catalog.RelID(i)
	}
	r := record{OK: true, Tier: 2, Cost: pr.eval.Cost(perm), FP: pr.fp, N: uint8(len(order))}
	for i, o := range order {
		r.Order[i] = uint8(o)
	}
	return pr, r
}

func TestOracleRejectsMutatedResponses(t *testing.T) {
	pr, good := servedRecord(t, ladderQuery())
	if _, err := pr.check(&good, nil); err != nil {
		t.Fatalf("a correct response was rejected: %v", err)
	}
	want := good.Cost
	if _, err := pr.check(&good, &want); err != nil {
		t.Fatalf("a bit-identical cost was rejected: %v", err)
	}
	mutations := map[string]func(r *record){
		"duplicate relation": func(r *record) { r.Order[1] = r.Order[0] },
		"short order":        func(r *record) { r.N-- },
		"cross product": func(r *record) {
			for i, o := range crossProductOrder(t, pr) {
				r.Order[i] = uint8(o)
			}
		},
		"cost":        func(r *record) { r.Cost *= 1 + 1e-6 },
		"fingerprint": func(r *record) { r.FP[0] ^= 1 },
		"tier":        func(r *record) { r.Tier = 3 },
		"malformed":   func(r *record) { r.Malformed = true },
	}
	for name, mutate := range mutations {
		r := good
		mutate(&r)
		if _, err := pr.check(&r, nil); !errors.Is(err, errOracle) {
			t.Errorf("%s: got %v, want an oracle rejection", name, err)
		}
	}
	off := math.Nextafter(want, math.Inf(1))
	if _, err := pr.check(&good, &off); !errors.Is(err, errOracle) {
		t.Errorf("a cost one ulp from the written one was accepted")
	}
	tier1 := good
	tier1.Tier, tier1.Cost = 1, good.Cost*3
	if _, err := pr.check(&tier1, nil); err != nil {
		t.Errorf("a tier-1 cost, priced by another estimator, was gated: %v", err)
	}
}

// crossProductOrder returns an order of pr's query whose second relation
// does not join the first.
func crossProductOrder(t *testing.T, pr *pricer) []int {
	n := pr.q.NumRelations()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b || pr.graph.Connected(catalog.RelID(a), catalog.RelID(b)) {
				continue
			}
			order := []int{a, b}
			for r := 0; r < n; r++ {
				if r != a && r != b {
					order = append(order, r)
				}
			}
			return order
		}
	}
	t.Fatal("the query's join graph is complete")
	return nil
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(got.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", got.Command, got.Paths)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", got.RunSeconds)
	}
	if len(got.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec has %d", len(got.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got.Workloads[i].Name != w.Name || got.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, spec %s: %q", i, got.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v\nspec       %+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the spec")
	}
	for _, m := range endToEnd {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}
