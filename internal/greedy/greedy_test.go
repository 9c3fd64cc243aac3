package greedy

import (
	"math"
	"math/rand"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/joingraph"
	"joinopt/internal/plan"
	"joinopt/internal/testutil"
	"joinopt/internal/workload"
)

// oracleEval builds a static-selectivity evaluator over q: the
// order-independent regime in which dp.Optimal is exact, so the DP
// floor check re-prices greedy orders with it.
func oracleEval(t *testing.T, q *catalog.Query) *plan.Evaluator {
	t.Helper()
	q.Normalize()
	g := joingraph.New(q)
	st := estimate.NewStats(q, g)
	st.UseStaticSelectivity()
	return plan.NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited())
}

func TestPlanValidDeterministicAndConsistent(t *testing.T) {
	shapes := []struct {
		name  string
		shape workload.Shape
	}{
		{"chain", workload.ShapeChain},
		{"star", workload.ShapeStar},
		{"cycle", workload.ShapeCycle},
		{"grid", workload.ShapeGrid},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42} {
				q, err := workload.Default().GenerateShape(sh.shape, 12, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("seed=%d: generate: %v", seed, err)
				}
				p, err := New(q, cost.NewMemoryModel())
				if err != nil {
					t.Fatalf("seed=%d: New: %v", seed, err)
				}
				res := p.Plan()
				if len(res.Order) != q.NumRelations() {
					t.Fatalf("seed=%d: order covers %d of %d relations", seed, len(res.Order), q.NumRelations())
				}
				seen := make(map[catalog.RelID]bool)
				for _, r := range res.Order {
					if seen[r] {
						t.Fatalf("seed=%d: relation %d appears twice in %v", seed, r, res.Order)
					}
					seen[r] = true
				}
				if math.IsNaN(res.TotalCost) || math.IsInf(res.TotalCost, 0) {
					t.Fatalf("seed=%d: non-finite total cost %g", seed, res.TotalCost)
				}
				if res.Work <= 0 {
					t.Fatalf("seed=%d: work counter %d, want > 0", seed, res.Work)
				}

				eval, _ := testutil.Eval(q.Clone())
				if !eval.Valid(res.Order) {
					t.Fatalf("seed=%d: greedy order %v has a hidden cross product", seed, res.Order)
				}
				// The greedy hotpath and the evaluator run the same
				// arithmetic in the same order: the totals are equal.
				if repriced := eval.Cost(res.Order); math.Float64bits(repriced) != math.Float64bits(res.TotalCost) {
					t.Fatalf("seed=%d: greedy total %g vs evaluator %g", seed, res.TotalCost, repriced)
				}

				// Determinism: a second Plan on the same planner and a
				// fresh planner both reproduce the order and cost bits.
				res2 := p.Plan()
				if math.Float64bits(res2.TotalCost) != math.Float64bits(res.TotalCost) {
					t.Fatalf("seed=%d: replanning drifted cost", seed)
				}
				p3, err := New(q.Clone(), cost.NewMemoryModel())
				if err != nil {
					t.Fatal(err)
				}
				res3 := p3.Plan()
				for i := range res.Order {
					if res.Order[i] != res3.Order[i] {
						t.Fatalf("seed=%d: fresh planner order %v != %v", seed, res3.Order, res.Order)
					}
				}
			}
		})
	}
}

// TestDisconnectedComponents: each component is contiguous in the final
// order, components combine smallest-final-size-first, and the cross
// products are priced.
func TestDisconnectedComponents(t *testing.T) {
	// Two components: {0,1} joined (big: 1000x1000), {2,3} joined
	// (small: 10x10). The small component must come first.
	q := &catalog.Query{
		Relations: []catalog.Relation{
			{Name: "A", Cardinality: 1000},
			{Name: "B", Cardinality: 1000},
			{Name: "C", Cardinality: 10},
			{Name: "D", Cardinality: 10},
		},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, LeftDistinct: 100, RightDistinct: 100},
			{Left: 2, Right: 3, LeftDistinct: 5, RightDistinct: 5},
		},
	}
	p, err := New(q, cost.NewMemoryModel())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Plan()
	if len(res.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(res.Components))
	}
	first := res.Components[0].Perm
	if !(first[0] >= 2 && first[1] >= 2) {
		t.Fatalf("smaller component must combine first; got leading perm %v (order %v)", first, res.Order)
	}
	if res.CrossCost <= 0 {
		t.Fatalf("cross cost %g, want > 0 for a disconnected query", res.CrossCost)
	}
	if res.TotalCost <= res.CrossCost {
		t.Fatalf("total %g must include component costs beyond cross cost %g", res.TotalCost, res.CrossCost)
	}
}

func TestToPlanIsIndependent(t *testing.T) {
	q := workload.Default().Generate(8, rand.New(rand.NewSource(3)))
	p, err := New(q, cost.NewMemoryModel())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Plan()
	pl := res.ToPlan()
	want := append(plan.Perm(nil), res.Order...)
	// Replanning reuses the buffers; the cloned plan must not move.
	p.Plan()
	got := pl.Order()
	if len(got) != len(want) {
		t.Fatalf("cloned plan order length drifted: %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cloned plan order drifted at %d: %v != %v", i, got, want)
		}
	}
	if math.Float64bits(pl.TotalCost) != math.Float64bits(res.TotalCost) {
		t.Fatal("cloned plan cost drifted")
	}
}

func TestEscalate(t *testing.T) {
	cases := []struct {
		cost, threshold float64
		want            bool
	}{
		{100, 0, false},         // no threshold: never escalate on cost
		{100, -1, false},        // negative threshold treated as "off"
		{100, 200, false},       // below threshold
		{200, 200, true},        // at threshold
		{1e30, 200, true},       // above threshold
		{math.NaN(), 0, true},   // poisoned cost always escalates
		{math.Inf(1), 0, true},  // overflow always escalates
		{math.Inf(-1), 0, true}, // nonsense always escalates
	}
	for _, c := range cases {
		if got := Escalate(c.cost, c.threshold); got != c.want {
			t.Errorf("Escalate(%g, %g) = %v, want %v", c.cost, c.threshold, got, c.want)
		}
	}
}

func TestSingleRelationAndSingleComponentEdgeCases(t *testing.T) {
	q := &catalog.Query{Relations: []catalog.Relation{{Name: "A", Cardinality: 5}}}
	p, err := New(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Plan()
	if len(res.Order) != 1 || res.Order[0] != 0 {
		t.Fatalf("single-relation order = %v", res.Order)
	}
	if res.TotalCost != 0 || res.CrossCost != 0 {
		//ljqlint:allow floatsafe -- test file: constants, not computed floats
		t.Fatalf("single-relation plan must cost 0, got total=%g cross=%g", res.TotalCost, res.CrossCost)
	}
}
