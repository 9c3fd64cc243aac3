package greedy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/heuristics"
	"joinopt/internal/joingraph"
	"joinopt/internal/testutil"
	"joinopt/internal/workload"
)

// oracleGrow is the planner's one-start expansion as it stood before
// the reach set, with its start relation as a parameter: every step
// rescans the whole component, skips the placed members, and prices
// every unplaced one, as a cross product when it joins nothing placed.
// It returns the order with its final size and summed join cost.
func oracleGrow(p *Planner, members []catalog.RelID, start catalog.RelID) (order []catalog.RelID, size, total float64) {
	frontier := joingraph.NewBitset(p.stats.Query().NumRelations())
	order = append(order, start)
	frontier.Set(start)
	size = p.stats.Cardinality(start)
	for len(order) < len(members) {
		best := catalog.RelID(-1)
		bestJoin := false
		bestCost, bestSize := 0.0, 0.0
		for _, rid := range members {
			if frontier.Test(rid) {
				continue
			}
			card := p.stats.Cardinality(rid)
			res := size * card
			joined := p.csr.JoinsInto(rid, frontier)
			if joined {
				res = p.stats.JoinSize(size, frontier, rid)
			}
			jc := p.model.JoinCost(size, card, res)
			if best < 0 || (joined && !bestJoin) || (joined == bestJoin && jc < bestCost) {
				best, bestJoin, bestCost, bestSize = rid, joined, jc, res
			}
		}
		order = append(order, best)
		frontier.Set(best)
		size = bestSize
		total += bestCost
	}
	return order, size, total
}

// oracleStarts returns members' numStarts smallest relations in the
// order heuristics.Augmentation takes its first relations.
func oracleStarts(p *Planner, members []catalog.RelID) []catalog.RelID {
	s := slices.Clone(members)
	sortStarts(p, s)
	return s[:min(numStarts, len(s))]
}

// sortStarts sorts rels as heuristics.Augmentation orders its first
// relations: a stable sort by effective cardinality, then by ID.
func sortStarts(p *Planner, rels []catalog.RelID) {
	sort.SliceStable(rels, func(i, j int) bool {
		ci, cj := p.stats.Cardinality(rels[i]), p.stats.Cardinality(rels[j])
		if ci < cj {
			return true
		}
		if cj < ci {
			return false
		}
		return rels[i] < rels[j]
	})
}

type oracleCase struct {
	name string
	q    *catalog.Query
}

// oracleCorpus is workload.Default() at N 5–60, every workload.Shapes
// topology at 6–30 relations, the skewed-histogram chain, and unions
// of two and of three components.
func oracleCorpus(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	for n := 5; n <= 60; n += 5 {
		for seed := int64(1); seed <= 3; seed++ {
			cases = append(cases, oracleCase{fmt.Sprintf("default/n=%d/seed=%d", n, seed),
				workload.Default().Generate(n, rand.New(rand.NewSource(seed)))})
		}
	}
	for _, sh := range workload.Shapes {
		for _, n := range []int{6, 9, 12, 20, 30} {
			for seed := int64(1); seed <= 2; seed++ {
				q, err := workload.Default().GenerateShape(sh, n, rand.New(rand.NewSource(int64(n)*10+seed)))
				if err != nil {
					t.Fatalf("%s n=%d: generate: %v", sh, n, err)
				}
				cases = append(cases, oracleCase{fmt.Sprintf("%s/n=%d/seed=%d", sh, n, seed), q})
			}
		}
	}
	cases = append(cases,
		oracleCase{"histograms", skewedHistogramQuery()},
		oracleCase{"two-components", disjointUnion(
			workload.Default().Generate(8, rand.New(rand.NewSource(11))),
			workload.Default().Generate(12, rand.New(rand.NewSource(12))))},
		oracleCase{"three-components", disjointUnion(
			workload.Default().Generate(15, rand.New(rand.NewSource(21))),
			disjointUnion(skewedHistogramQuery(),
				workload.Default().Generate(5, rand.New(rand.NewSource(22)))))},
	)
	for _, c := range cases {
		c.q.Normalize()
	}
	return cases
}

// TestDifferentialGreedyStartMatchesOracle pins the min-cost reach-set
// expansion to the full-rescan one: from every start relation of every
// component, grow produces the oracle's order, final size and total
// cost, bit for bit.
func TestDifferentialGreedyStartMatchesOracle(t *testing.T) {
	for _, c := range oracleCorpus(t) {
		t.Run(c.name, func(t *testing.T) {
			p, err := New(c.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			for ci := 0; ci+1 < len(p.compOff); ci++ {
				a, b := int(p.compOff[ci]), int(p.compOff[ci+1])
				members := p.comps[a:b]
				for _, s := range members {
					wantOrder, wantSize, wantTotal := oracleGrow(p, members, s)
					size, total, done := p.grow(a, b, s, math.Inf(1), minCost)
					if !done {
						t.Fatalf("component %d start %d: abandoned under an infinite bound", ci, s)
					}
					if !slices.Equal(p.grown[a:b], wantOrder) {
						t.Fatalf("component %d start %d: order %v, oracle %v", ci, s, p.grown[a:b], wantOrder)
					}
					if math.Float64bits(total) != math.Float64bits(wantTotal) || math.Float64bits(size) != math.Float64bits(wantSize) {
						t.Fatalf("component %d start %d: total/size %g/%g, oracle %g/%g", ci, s, total, size, wantTotal, wantSize)
					}
				}
			}
		})
	}
}

// TestDifferentialGreedySelStartMatchesAugmentation pins the minSel
// grow to the paper's augmentation heuristic under criterion 3: from
// every start relation of every component, grow produces the order
// heuristics.Augmentation generates with CriterionMinSel, and its total
// is plan.Evaluator's cost of that order, bit for bit.
func TestDifferentialGreedySelStartMatchesAugmentation(t *testing.T) {
	for _, c := range oracleCorpus(t) {
		t.Run(c.name, func(t *testing.T) {
			p, err := New(c.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			eval, _ := testutil.Eval(c.q)
			for ci := 0; ci+1 < len(p.compOff); ci++ {
				a, b := int(p.compOff[ci]), int(p.compOff[ci+1])
				members := p.comps[a:b]
				aug := heuristics.NewAugmentation(eval, members, heuristics.CriterionMinSel)
				for _, s := range members {
					want := aug.Generate(s)
					_, total, done := p.grow(a, b, s, math.Inf(1), minSel)
					if !done {
						t.Fatalf("component %d start %d: abandoned under an infinite bound", ci, s)
					}
					if !slices.Equal(p.grown[a:b], want) {
						t.Fatalf("component %d start %d: order %v, augmentation %v", ci, s, p.grown[a:b], want)
					}
					if got := eval.Cost(want); math.Float64bits(got) != math.Float64bits(total) {
						t.Fatalf("component %d start %d: total %g, evaluator %g", ci, s, total, got)
					}
				}
			}
		})
	}
}

// oraclePrice returns order's final size and summed join cost, sized by
// an estimate.Prefix over p's statistics.
func oraclePrice(p *Planner, order []catalog.RelID) (size, total float64) {
	pre := estimate.NewPrefix(p.stats)
	pre.Extend(order[0])
	for _, r := range order[1:] {
		outer, inner, res := pre.Extend(r)
		total += p.model.JoinCost(outer, inner, res)
	}
	return pre.Size(), total
}

// countingModel counts the JoinCost calls it answers.
type countingModel struct {
	cost.Model
	calls int64
}

func (m *countingModel) JoinCost(outer, inner, result float64) float64 {
	m.calls++
	return m.Model.JoinCost(outer, inner, result)
}

// TestDifferentialGreedyPlanMatchesOracle pins Plan to its oracles
// grown from each component's numStarts smallest relations: the
// full-rescan min-cost planner's and, on a connected query, then
// heuristics.Augmentation's under CriterionMinSel. Every component gets
// the strictly cheapest of those orders, the earliest on a tie, so it
// never costs more than the min-cost starts alone, and Work counts
// every JoinCost call Plan made.
func TestDifferentialGreedyPlanMatchesOracle(t *testing.T) {
	for _, c := range oracleCorpus(t) {
		t.Run(c.name, func(t *testing.T) {
			m := &countingModel{Model: cost.NewMemoryModel()}
			p, err := New(c.q, m)
			if err != nil {
				t.Fatal(err)
			}
			res := p.Plan()
			if res.Work != m.calls {
				t.Fatalf("Work %d, JoinCost called %d times", res.Work, m.calls)
			}
			eval, _ := testutil.Eval(c.q)
			connected := len(p.compOff) == 2
			for ci := 0; ci+1 < len(p.compOff); ci++ {
				a, b := int(p.compOff[ci]), int(p.compOff[ci+1])
				members := p.comps[a:b]
				starts := oracleStarts(p, members)
				var wantOrder []catalog.RelID
				var wantSize, wantTotal float64
				for i, s := range starts {
					order, size, total := oracleGrow(p, members, s)
					if i == 0 || total < wantTotal {
						wantOrder, wantSize, wantTotal = order, size, total
					}
				}
				minCostTotal := wantTotal
				if connected {
					aug := heuristics.NewAugmentation(eval, members, heuristics.CriterionMinSel)
					for _, s := range starts {
						order := aug.Generate(s)
						if size, total := oraclePrice(p, order); total < wantTotal {
							wantOrder, wantSize, wantTotal = order, size, total
						}
					}
				}
				if !slices.Equal(p.scratch[a:b], wantOrder) {
					t.Fatalf("component %d: order %v, oracle %v", ci, p.scratch[a:b], wantOrder)
				}
				if math.Float64bits(p.segCost[ci]) != math.Float64bits(wantTotal) || math.Float64bits(p.segSize[ci]) != math.Float64bits(wantSize) {
					t.Fatalf("component %d: total/size %g/%g, oracle %g/%g", ci, p.segCost[ci], p.segSize[ci], wantTotal, wantSize)
				}
				if p.segCost[ci] > minCostTotal {
					t.Fatalf("component %d: cost %g above the min-cost starts' %g", ci, p.segCost[ci], minCostTotal)
				}
			}
		})
	}
}

// TestSmallestStartsOrder checks the start order on ties: equal
// cardinalities keep ascending IDs, a relation past the eight smallest
// never displaces them (nor does one tied with the eighth at a higher
// ID), and a late small relation shifts a full list.
func TestSmallestStartsOrder(t *testing.T) {
	q := &catalog.Query{Relations: []catalog.Relation{
		{Name: "a", Cardinality: 50}, {Name: "b", Cardinality: 10}, {Name: "c", Cardinality: 30},
		{Name: "d", Cardinality: 10}, {Name: "e", Cardinality: 30}, {Name: "f", Cardinality: 5},
		{Name: "g", Cardinality: 40}, {Name: "h", Cardinality: 20}, {Name: "i", Cardinality: 60},
		{Name: "j", Cardinality: 40}, {Name: "k", Cardinality: 1}, {Name: "l", Cardinality: 40},
	}}
	for i := 0; i+1 < len(q.Relations); i++ {
		q.Predicates = append(q.Predicates, catalog.Predicate{Left: catalog.RelID(i), Right: catalog.RelID(i + 1), LeftDistinct: 5, RightDistinct: 5})
	}
	p, err := New(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var starts [numStarts]catalog.RelID
	k := p.smallest(p.comps, &starts)
	if want := []catalog.RelID{10, 5, 1, 3, 7, 2, 4, 6}; !slices.Equal(starts[:k], want) {
		t.Fatalf("starts %v, want %v", starts[:k], want)
	}
	if want := oracleStarts(p, p.comps); !slices.Equal(starts[:k], want) {
		t.Fatalf("starts %v, Augmentation's order %v", starts[:k], want)
	}
}
