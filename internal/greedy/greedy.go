// Package greedy is the Tier-1 planner of the tiered serving ladder: a
// greedy join orderer that plans in microseconds and allocates nothing
// per plan, so a cache miss can be answered immediately while the full
// anytime search (internal/core) upgrades the cached entry in the
// background.
//
// The algorithm is the paper's augmentation heuristic (§4.1, Figure 3)
// under two chooseNext criteria. Per connected component, an order
// grows from a start relation by repeatedly appending one joinable
// relation: under minCost the one whose next join is cheapest under
// the cost model (the min-cost expansion of the "When Greedy Beats
// Optimal" recipe excerpted in SNIPPETS.md, close to the paper's
// criterion 4), under minSel the one with the smallest join
// selectivity into the order so far (criterion 3, which §4.1's Table 1
// finds best). Plan grows one order under minCost from each of the
// component's eight smallest relations, taken in
// heuristics.Augmentation's first-relation order (effective
// cardinality, then ID); on a connected query it then grows one under
// minSel from each of the same eight. It keeps the strictly cheapest;
// a tie keeps the earlier order, so a minCost order over a minSel one.
// A start is abandoned as soon as its running total reaches the best
// complete total: join costs are non-negative, so it can no longer
// win. The minCost orders stay candidates, so a connected query never
// costs more than minCost alone would give it. A disconnected query
// plans under minCost alone: its cross products price each
// component's final size, which a cheaper minSel order can raise.
//
// Each step considers only the relations in the reach set, the OR of
// the placed relations' join-graph neighbor masks minus the placed
// ones, in ascending ID order. A relation outside it would be a cross
// product, which a connected component never needs. Joins are sized by
// estimate.Stats — distinct-value propagation and histograms included
// — with the arithmetic plan.Evaluator prices with, so a component's
// cost equals the evaluator's cost of its order bit for bit. A
// relation's selectivity into the placed set changes only when one of
// its neighbors is placed, so placing a relation re-prices each
// unplaced neighbor's selectivity once — a neighbor entering the reach
// set takes the one factor of its edge
// (estimate.Stats.NeighborSelectivity), one already in it multiplies
// its factors again (estimate.Stats.UnclampedSelectivityInto) — and the
// planner keeps the product with its threshold. The product is the
// selectivity while the prefix size is at or above that threshold;
// below it, once the prefix has shrunk below a distinct count the
// product varies with, estimate.Stats.SelectivityInto clamps the
// factors. A minCost step prices every reach member's join. A minSel
// step compares selectivities and prices only the relation it picks;
// below a member's threshold its product is a lower bound of its
// selectivity, so a member whose product is not below the incumbent's
// selectivity is passed over without SelectivityInto. Components are
// then concatenated smallest-final-size-first with cross products
// priced between them and their costs summed in that order, matching
// plan.Assemble's postpone-cross-products total.
//
// Determinism: the planner is a pure function of (query, model). Ties
// are broken by the lowest canonical relation ID (candidates are
// scanned in ascending ID order and only a strictly better score
// displaces the incumbent pick, as only a strictly cheaper order
// displaces an earlier start's), so two runs over the same canonical
// query produce byte-identical orders.
//
// Allocation discipline: New does all the allocating (join graph and
// its CSR view, estimator statistics, the placed and reach bitsets,
// the cached selectivities, scratch and result buffers); Plan is a
// hotpath function that reuses those buffers and returns a pointer
// into the planner. BenchmarkGreedyPlan20 carries a 0-allocs/op
// ceiling in ALLOC_BUDGETS.json.
//
// The package deliberately does not charge a cost.Budget: greedy work
// is bounded by construction. Over a component of V relations a minCost
// start prices at most V(V−1)/2 joins and a minSel start V−1, so a plan
// makes at most 8·V(V−1)/2 + 8·(V−1) JoinCost calls per component,
// plus one per cross product, and the Result's Work counter reports
// the exact count after the fact.
package greedy

import (
	"math"
	"math/bits"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/joingraph"
	"joinopt/internal/plan"
)

// DefaultThreshold is the escalation ceiling ljqd applies through
// Escalate: high enough that only absurd plans (estimator overflow
// territory) escalate a cold miss to the synchronous full search.
const DefaultThreshold = 1e18

// Escalate is the deterministic cost-threshold escalation rule: it
// reports whether a greedy plan with the given estimated total cost is
// too poor to serve and the miss should run the full anytime search
// synchronously instead. A non-finite cost (estimator overflow or
// poisoned statistics) always escalates; otherwise the plan escalates
// when a positive threshold is met or exceeded. threshold <= 0 means
// "never escalate on cost alone".
func Escalate(totalCost, threshold float64) bool {
	if math.IsNaN(totalCost) || math.IsInf(totalCost, 0) {
		return true
	}
	return threshold > 0 && totalCost >= threshold
}

// Result is one greedy plan. Its slices alias the planner's reusable
// buffers: a Result is valid only until the next Plan call on the same
// planner. Use ToPlan for an independent copy.
type Result struct {
	// Order is the full join order: component permutations concatenated
	// in cross-product combination order (smallest final size first).
	Order plan.Perm
	// Components holds one permutation per join-graph component, in
	// combination order; each Perm is a sub-slice of Order.
	Components []plan.Result
	// CrossCost prices the cross products combining the components
	// (zero for connected queries); TotalCost is the sum of component
	// join costs plus CrossCost.
	CrossCost float64
	TotalCost float64
	// Work counts cost-model evaluations performed, in the same spirit
	// as the search budget's unit meter.
	Work int64
}

// ToPlan renders the result as an independently-owned plan.Plan (the
// shape the plan cache stores). Allocates; call it off the hot path.
func (r *Result) ToPlan() *plan.Plan {
	pl := &plan.Plan{CrossCost: r.CrossCost, TotalCost: r.TotalCost}
	pl.Components = make([]plan.Result, len(r.Components))
	for i, c := range r.Components {
		pl.Components[i] = plan.Result{Perm: c.Perm.Clone(), Cost: c.Cost}
	}
	return pl
}

// numStarts is how many of a component's smallest relations Plan grows
// an order from under each criterion. The plan-quality gate
// (quality_test.go) prices what a different count would buy.
const numStarts = 8

// Planner is a reusable greedy planner for one query. Build with New
// (which allocates everything Plan will ever need), then call Plan any
// number of times. Not safe for concurrent use.
type Planner struct {
	model cost.Model

	// stats sizes every join, exactly as plan.Evaluator does; csr is
	// its join graph's flat adjacency view, whose neighbor masks grow
	// the reach set.
	stats *estimate.Stats
	csr   *joingraph.CSR

	// comps holds the relations of each connected component (ascending
	// IDs within a component), segmented by compOff.
	comps   []catalog.RelID
	compOff []int32

	// placed is the order-so-far membership bitset and reach the
	// unplaced relations that join it, both reused per start. sel[r]
	// and thr[r] are what estimate.Stats.UnclampedSelectivityInto
	// returns for reach member r and the placed set, refreshed
	// whenever a neighbor of r is placed. scratch holds each
	// component's cheapest order and grown the order of the current
	// start, both in comps segmentation; segSize/segCost record each
	// component's final size and summed join cost; segIdx is the
	// combination-order sort permutation; order is the concatenated
	// final order.
	placed  joingraph.Bitset
	reach   joingraph.Bitset
	sel     []float64
	thr     []float64
	scratch []catalog.RelID
	grown   []catalog.RelID
	segSize []float64
	segCost []float64
	segIdx  []int
	order   plan.Perm

	result Result
	work   int64
}

// New builds a planner for q under model (nil model = the memory
// model). The query must validate. New allocates freely; Plan does not.
func New(q *catalog.Query, model cost.Model) (*Planner, error) {
	if model == nil {
		model = cost.NewMemoryModel()
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := q.NumRelations()
	g := joingraph.New(q)
	p := &Planner{model: model, stats: estimate.NewStats(q, g), csr: g.CSR()}

	comps := g.Components()
	p.compOff = make([]int32, 1, len(comps)+1)
	p.comps = make([]catalog.RelID, 0, n)
	for _, comp := range comps {
		p.comps = append(p.comps, comp...)
		p.compOff = append(p.compOff, int32(len(p.comps)))
	}

	// The two bitsets, the two order lanes and the four float64 lanes
	// are each cut from one allocation.
	words := (n + 63) >> 6
	sets := make(joingraph.Bitset, 2*words)
	p.placed, p.reach = sets[:words:words], sets[words:]
	lanes := make([]catalog.RelID, 2*n)
	p.scratch, p.grown = lanes[:n:n], lanes[n:]
	nc := len(comps)
	floats := make([]float64, 2*n+2*nc)
	p.sel, p.thr = floats[:n:n], floats[n:2*n:2*n]
	p.segSize, p.segCost = floats[2*n:2*n+nc:2*n+nc], floats[2*n+nc:]
	p.segIdx = make([]int, len(comps))
	p.order = make(plan.Perm, n)
	p.result.Components = make([]plan.Result, len(comps))
	return p, nil
}

// Plan computes the greedy join order. The returned Result aliases the
// planner's buffers and is valid until the next Plan call.
//
//ljqlint:hotpath
func (p *Planner) Plan() *Result {
	p.work = 0
	ncomp := len(p.compOff) - 1
	for c := 0; c < ncomp; c++ {
		p.planComponent(c)
	}

	// Combination order: smallest final size first (plan.Assemble's
	// postpone-cross-products order). Insertion sort — ncomp is tiny.
	for i := 0; i < ncomp; i++ {
		p.segIdx[i] = i
	}
	for i := 1; i < ncomp; i++ {
		for j := i; j > 0 && p.segSize[p.segIdx[j]] < p.segSize[p.segIdx[j-1]]; j-- {
			p.segIdx[j], p.segIdx[j-1] = p.segIdx[j-1], p.segIdx[j]
		}
	}

	r := &p.result
	pos := 0
	total := 0.0
	cross := 0.0
	acc := 0.0
	for i := 0; i < ncomp; i++ {
		ci := p.segIdx[i]
		a, b := int(p.compOff[ci]), int(p.compOff[ci+1])
		start := pos
		pos += copy(p.order[pos:], p.scratch[a:b])
		r.Components[i].Perm = p.order[start:pos]
		r.Components[i].Cost = p.segCost[ci]
		total += p.segCost[ci]
		if i == 0 {
			acc = p.segSize[ci]
		} else {
			res := acc * p.segSize[ci]
			cross += p.model.JoinCost(acc, p.segSize[ci], res)
			p.work++
			acc = res
		}
	}
	r.Order = p.order[:pos]
	r.CrossCost = cross
	r.TotalCost = total + cross
	r.Work = p.work
	return r
}

// planComponent orders component c into the scratch buffer, recording
// its final size and summed join cost: it grows an order from each of
// the component's numStarts smallest relations under minCost, then, on
// a connected query, from the same starts under minSel, and keeps the
// strictly cheapest, the earliest on a tie.
//
//ljqlint:hotpath
func (p *Planner) planComponent(c int) {
	a, b := int(p.compOff[c]), int(p.compOff[c+1])
	var starts [numStarts]catalog.RelID
	k := p.smallest(p.comps[a:b], &starts)
	// The first start has no bound to reach: a NaN bound compares
	// false, so it always completes.
	p.growStarts(c, starts[:k], math.NaN(), minCost)
	// A cheaper minSel order can end in a larger result, which the
	// cross products of a disconnected query multiply.
	if len(p.compOff) == 2 {
		p.growStarts(c, starts[:k], p.segCost[c], minSel)
	}
}

// growStarts grows an order of component c under crit from each start
// in turn, each bounded by the cheapest total so far, and copies each
// it completes into the scratch buffer with its final size and cost.
//
//ljqlint:hotpath
func (p *Planner) growStarts(c int, starts []catalog.RelID, bound float64, crit criterion) {
	a, b := int(p.compOff[c]), int(p.compOff[c+1])
	for _, s := range starts {
		size, total, done := p.grow(a, b, s, bound, crit)
		if !done {
			continue
		}
		copy(p.scratch[a:b], p.grown[a:b])
		p.segSize[c], p.segCost[c] = size, total
		bound = total
	}
}

// smallest fills starts with up to numStarts of members' smallest
// relations, ascending by effective cardinality and then by ID (the
// order heuristics.Augmentation takes its first relations in), and
// returns how many it filled.
//
//ljqlint:hotpath
func (p *Planner) smallest(members []catalog.RelID, starts *[numStarts]catalog.RelID) int {
	k := 0
	for _, r := range members {
		card := p.stats.Cardinality(r)
		// members ascend by ID, so an equal cardinality stays behind.
		j := k
		for j > 0 && card < p.stats.Cardinality(starts[j-1]) {
			j--
		}
		if j == numStarts {
			continue
		}
		if k < numStarts {
			k++
		}
		copy(starts[j+1:k], starts[j:k-1])
		starts[j] = r
	}
	return k
}

// A criterion is the rule by which a grow step picks the next relation
// among the reach set's members.
type criterion uint8

const (
	// minCost picks the relation whose join is cheapest.
	minCost criterion = iota
	// minSel picks the relation with the smallest selectivity into the
	// placed set: the paper's criterion 3 (§4.1).
	minSel
)

// grow orders the component segmented at [a, b) from start into the
// grown buffer, each step appending the reachable relation crit picks,
// and returns the order's final size and summed join cost. grow
// abandons the order, returning done=false, as soon as its running
// total reaches bound.
//
//ljqlint:hotpath
func (p *Planner) grow(a, b int, start catalog.RelID, bound float64, crit criterion) (size, total float64, done bool) {
	p.placed.Reset()
	p.reach.Reset()
	p.grown[a] = start
	p.place(start)
	size = p.stats.Cardinality(start)
	for filled := a + 1; filled < b; filled++ {
		var next catalog.RelID
		var jc float64
		if crit == minSel {
			next, jc, size = p.pickMinSel(size)
		} else {
			next, jc, size = p.pickMinCost(size)
		}
		p.grown[filled] = next
		p.place(next)
		total += jc
		if total >= bound {
			return 0, 0, false
		}
	}
	return size, total, true
}

// pickMinCost prices every reach member's join with the placed set, of
// size tuples, and returns the cheapest, the lowest ID on a tie, with
// its join cost and result size.
//
//ljqlint:hotpath
func (p *Planner) pickMinCost(size float64) (best catalog.RelID, bestCost, bestRes float64) {
	stats, model, sel, thr := p.stats, p.model, p.sel, p.thr
	best = -1
	for w, word := range p.reach {
		for ; word != 0; word &= word - 1 {
			rid := catalog.RelID(w<<6 + bits.TrailingZeros64(word))
			card := stats.Cardinality(rid)
			// A cached product is JoinSize's selectivity unless the
			// prefix has shrunk below a distinct count it varies with.
			var res float64
			if size >= thr[rid] {
				res = size * card * sel[rid]
			} else {
				res = stats.JoinSize(size, p.placed, rid)
			}
			jc := model.JoinCost(size, card, res)
			p.work++
			if best < 0 || jc < bestCost {
				best, bestCost, bestRes = rid, jc, res
			}
		}
	}
	return best, bestCost, bestRes
}

// pickMinSel returns the reach member with the smallest selectivity
// into the placed set, of size tuples, the lowest ID on a tie, with its
// join cost and result size. Only that member's join is priced. Below
// its threshold a member's cached product is a lower bound of its
// selectivity, since clamping only lowers a factor's divisor and
// correctly rounded arithmetic keeps that order, so a member whose
// product is not below the incumbent's selectivity is passed over
// without SelectivityInto.
//
//ljqlint:hotpath
func (p *Planner) pickMinSel(size float64) (best catalog.RelID, jc, res float64) {
	stats, sel, thr := p.stats, p.sel, p.thr
	best = -1
	bestSel := 0.0
	for w, word := range p.reach {
		for ; word != 0; word &= word - 1 {
			rid := catalog.RelID(w<<6 + bits.TrailingZeros64(word))
			s := sel[rid]
			if !(size >= thr[rid]) {
				if best >= 0 && !(s < bestSel) {
					continue
				}
				s = stats.SelectivityInto(size, p.placed, rid)
			}
			if best < 0 || s < bestSel {
				best, bestSel = rid, s
			}
		}
	}
	// JoinSize's arithmetic, so the result matches the evaluator's.
	card := stats.Cardinality(best)
	res = size * card * bestSel
	p.work++
	return best, p.model.JoinCost(size, card, res), res
}

// place adds r to the order so far: r leaves the reach set, and each
// unplaced neighbor joins it with its selectivity into the new placed
// set priced afresh. Only placing a neighbor changes which of a
// relation's factors multiply in, so a reach member's cached product
// is always current. A neighbor entering the reach set joins r alone,
// so its product is the one factor r's incidence holds.
//
//ljqlint:hotpath
func (p *Planner) place(r catalog.RelID) {
	p.placed.Set(r)
	p.reach.Clear(r)
	csr, stats := p.csr, p.stats
	for k := csr.Off[r]; k < csr.Off[r+1]; k++ {
		nb := catalog.RelID(csr.Nbr[k])
		switch {
		case p.placed.Test(nb):
		case p.reach.Test(nb):
			p.sel[nb], p.thr[nb] = stats.UnclampedSelectivityInto(p.placed, nb)
		default:
			p.reach.Set(nb)
			p.sel[nb], p.thr[nb] = stats.NeighborSelectivity(k)
		}
	}
}
