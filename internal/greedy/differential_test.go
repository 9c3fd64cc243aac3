package greedy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/dp"
	"joinopt/internal/plan"
	"joinopt/internal/testutil"
	"joinopt/internal/workload"
)

// greedySanityRatio is the documented Tier-1 quality bound: on the
// oracle grid (chain/star/cycle/grid, N ≤ 10) a greedy plan stays
// within this factor of the exact DP optimum. It is a
// catastrophic-regression guard like the strategy suite's bound in
// internal/core — greedy is usually within a few x (and often optimal
// on chains/stars, per the "When Greedy Beats Optimal" writeup cited
// in PAPERS.md/SNIPPETS.md), but star/grid queries with adversarial
// selectivity draws can push it far out; that is exactly the case the
// escalation rule and the background Tier-2 upgrade exist for.
const greedySanityRatio = 100.0

// TestDifferentialGreedyOracle extends the differential oracle suite
// to the Tier-1 planner: greedy plans on every shape at N ≤ 10 must be
// valid, finitely priced, never cheaper than the exact left-deep
// optimum under the same static cost function, and within
// greedySanityRatio of it.
func TestDifferentialGreedyOracle(t *testing.T) {
	shapes := []struct {
		name  string
		shape workload.Shape
	}{
		{"chain", workload.ShapeChain},
		{"star", workload.ShapeStar},
		{"cycle", workload.ShapeCycle},
		{"grid", workload.ShapeGrid},
	}
	const slack = 1e-9 // float re-pricing tolerance on the ≥-optimum side
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			for _, n := range []int{4, 7, 9, 10} {
				for _, seed := range []int64{1, 2, 3} {
					q, err := workload.Default().GenerateShape(sh.shape, n, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatalf("n=%d seed=%d: generate: %v", n, seed, err)
					}
					p, err := New(q.Clone(), nil)
					if err != nil {
						t.Fatalf("n=%d seed=%d: New: %v", n, seed, err)
					}
					res := p.Plan()
					if len(res.Order) != n {
						t.Fatalf("n=%d seed=%d: greedy covers %d of %d relations", n, seed, len(res.Order), n)
					}

					eval := oracleEval(t, q.Clone())
					if !eval.Valid(res.Order) {
						t.Fatalf("n=%d seed=%d: invalid greedy order %v (cross product)", n, seed, res.Order)
					}
					// Re-price under the oracle evaluator so the
					// comparison uses one cost function.
					c := eval.Cost(res.Order)
					if math.IsNaN(c) || math.IsInf(c, 0) {
						t.Fatalf("n=%d seed=%d: non-finite greedy cost %g", n, seed, c)
					}

					comps := eval.Stats().Graph().Components()
					if len(comps) != 1 {
						t.Fatalf("n=%d seed=%d: shape generator produced %d components, want 1", n, seed, len(comps))
					}
					optPerm, optCost, err := dp.Optimal(eval, comps[0])
					if err != nil {
						t.Fatalf("n=%d seed=%d: dp oracle: %v", n, seed, err)
					}
					if len(optPerm) != n || math.IsNaN(optCost) || math.IsInf(optCost, 0) {
						t.Fatalf("n=%d seed=%d: degenerate oracle: perm=%d cost=%g", n, seed, len(optPerm), optCost)
					}
					if c < optCost*(1-slack) {
						t.Fatalf("n=%d seed=%d: greedy cost %g undercuts exact optimum %g — inconsistent costing",
							n, seed, c, optCost)
					}
					if optCost > 0 && c > optCost*greedySanityRatio {
						t.Fatalf("n=%d seed=%d: greedy cost %g is %.1fx the optimum %g (sanity ratio %g)",
							n, seed, c, c/optCost, optCost, greedySanityRatio)
					}
				}
			}
		})
	}
}

// TestEscalationFiresOnWorstShape pins the escalation rule to the
// differential grid: with the threshold set between the most expensive
// greedy plan and the runner-up, exactly the worst shape escalates.
// This is the contract of any escalation threshold — the shapes where
// greedy plans are estimated worst are the ones that pay the
// synchronous full search.
func TestEscalationFiresOnWorstShape(t *testing.T) {
	shapes := []struct {
		name  string
		shape workload.Shape
	}{
		{"chain", workload.ShapeChain},
		{"star", workload.ShapeStar},
		{"cycle", workload.ShapeCycle},
		{"grid", workload.ShapeGrid},
	}
	const n, seed = 9, 1
	costs := make([]float64, len(shapes))
	for i, sh := range shapes {
		q, err := workload.Default().GenerateShape(sh.shape, n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = p.Plan().TotalCost
	}
	sorted := append([]float64(nil), costs...)
	sort.Float64s(sorted)
	worst, second := sorted[len(sorted)-1], sorted[len(sorted)-2]
	if !(second < worst) {
		t.Skipf("degenerate draw: two shapes tied at cost %g", worst)
	}
	threshold := second + (worst-second)/2
	fired := 0
	for i, sh := range shapes {
		esc := Escalate(costs[i], threshold)
		if esc {
			fired++
		}
		wantEsc := !(costs[i] < worst) // only the worst shape is at/above threshold
		if esc != wantEsc {
			t.Errorf("%s: Escalate(%g, %g) = %v, want %v", sh.name, costs[i], threshold, esc, wantEsc)
		}
	}
	if fired != 1 {
		t.Errorf("escalations fired = %d, want exactly 1 (the worst shape)", fired)
	}
}

// TestDifferentialGreedyCostMatchesEvaluator pins Tier 1 to the one
// estimator every other tier prices with: a greedy plan's TotalCost is
// what plan.Evaluator.Cost charges for its order, bit for bit, on every
// connected query, and what plan.Assemble totals over its components
// on a disconnected one. The histogram case is the one a static
// per-edge selectivity gets wrong even when no intermediate result
// shrinks below a distinct count.
func TestDifferentialGreedyCostMatchesEvaluator(t *testing.T) {
	type tc struct {
		name  string
		q     *catalog.Query
		comps int
	}
	var cases []tc
	for n := 5; n <= 40; n += 5 {
		for seed := int64(1); seed <= 3; seed++ {
			cases = append(cases, tc{fmt.Sprintf("default/n=%d/seed=%d", n, seed),
				workload.Default().Generate(n, rand.New(rand.NewSource(seed))), 1})
		}
	}
	for _, sh := range workload.Shapes {
		for _, n := range []int{6, 12, 20, 30} {
			q, err := workload.Default().GenerateShape(sh, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatalf("%s n=%d: generate: %v", sh, n, err)
			}
			cases = append(cases, tc{fmt.Sprintf("%s/n=%d", sh, n), q, 1})
		}
	}
	cases = append(cases,
		tc{"histograms", skewedHistogramQuery(), 1},
		tc{"two-components", disjointUnion(
			workload.Default().Generate(8, rand.New(rand.NewSource(11))),
			workload.Default().Generate(12, rand.New(rand.NewSource(12)))), 2},
		tc{"three-components", disjointUnion(
			workload.Default().Generate(15, rand.New(rand.NewSource(21))),
			disjointUnion(skewedHistogramQuery(),
				workload.Default().Generate(5, rand.New(rand.NewSource(22))))), 3},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.q.Normalize()
			p, err := New(c.q.Clone(), nil)
			if err != nil {
				t.Fatal(err)
			}
			res := p.Plan()
			if len(res.Components) != c.comps {
				t.Fatalf("%d components, want %d", len(res.Components), c.comps)
			}
			eval, _ := testutil.Eval(c.q)
			for i, comp := range res.Components {
				if got := eval.Cost(comp.Perm); math.Float64bits(got) != math.Float64bits(comp.Cost) {
					t.Fatalf("component %d %v: greedy cost %g, evaluator %g", i, comp.Perm, comp.Cost, got)
				}
			}
			if len(res.Components) == 1 {
				if got := eval.Cost(res.Order); math.Float64bits(got) != math.Float64bits(res.TotalCost) {
					t.Fatalf("greedy total %g, evaluator %g", res.TotalCost, got)
				}
				return
			}
			// Hand Assemble the components in graph order, so it has to
			// find greedy's combination order itself.
			byGraph := slices.Clone(res.Components)
			sort.Slice(byGraph, func(i, j int) bool { return slices.Min(byGraph[i].Perm) < slices.Min(byGraph[j].Perm) })
			pl := plan.Assemble(eval, byGraph)
			if !slices.Equal(pl.Order(), res.Order) {
				t.Fatalf("Assemble combined %v, greedy %v", pl.Order(), res.Order)
			}
			if math.Float64bits(pl.CrossCost) != math.Float64bits(res.CrossCost) ||
				math.Float64bits(pl.TotalCost) != math.Float64bits(res.TotalCost) {
				t.Fatalf("greedy cross/total %g/%g, Assemble %g/%g", res.CrossCost, res.TotalCost, pl.CrossCost, pl.TotalCost)
			}
		})
	}
}

// skewedHistogramQuery is a four-relation chain whose join columns
// carry aligned, skewed histograms: the estimator's histogram
// selectivity is far from the 1/max(D) that Normalize stores in each
// predicate's Selectivity.
func skewedHistogramQuery() *catalog.Query {
	hot := func(rows float64) *catalog.Histogram {
		return &catalog.Histogram{Domain: 1000, Counts: []float64{rows * 0.9, rows * 0.05, rows * 0.03, rows * 0.02}}
	}
	flat := func(rows float64) *catalog.Histogram {
		return &catalog.Histogram{Domain: 1000, Counts: []float64{rows / 4, rows / 4, rows / 4, rows / 4}}
	}
	return &catalog.Query{
		Relations: []catalog.Relation{
			{Name: "a", Cardinality: 200},
			{Name: "b", Cardinality: 5000},
			{Name: "c", Cardinality: 800},
			{Name: "d", Cardinality: 30000},
		},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, LeftDistinct: 150, RightDistinct: 900, LeftHist: hot(200), RightHist: hot(5000)},
			{Left: 1, Right: 2, LeftDistinct: 900, RightDistinct: 600, LeftHist: flat(5000), RightHist: hot(800)},
			{Left: 2, Right: 3, LeftDistinct: 600, RightDistinct: 1000, LeftHist: hot(800), RightHist: hot(30000)},
		},
	}
}

// disjointUnion returns a query holding a's and b's relations and
// predicates side by side, b's renumbered after a's: one join-graph
// component per component of a and of b.
func disjointUnion(a, b *catalog.Query) *catalog.Query {
	u := a.Clone()
	off := catalog.RelID(len(u.Relations))
	for _, r := range b.Clone().Relations {
		r.Name = fmt.Sprintf("u%d_%s", off, r.Name)
		u.Relations = append(u.Relations, r)
	}
	for _, p := range b.Clone().Predicates {
		p.Left += off
		p.Right += off
		u.Predicates = append(u.Predicates, p)
	}
	return u
}
