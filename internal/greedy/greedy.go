// Package greedy is the Tier-1 planner of the tiered serving ladder: a
// greedy join orderer that plans in microseconds and allocates nothing
// per plan, so a cache miss can be answered immediately while the full
// anytime search (internal/core) upgrades the cached entry in the
// background.
//
// The algorithm is the classic min-cost expansion over the join graph
// (the "When Greedy Beats Optimal" recipe excerpted in SNIPPETS.md):
// per connected component, start from the smallest relation and
// repeatedly append the frontier-joinable relation whose next join is
// cheapest under the cost model. Joins are sized by estimate.Stats —
// distinct-value propagation and histograms included — with the
// arithmetic plan.Evaluator prices with, so a component's cost equals
// the evaluator's cost of its order bit for bit. Components are then
// concatenated smallest-final-size-first with cross products priced
// between them and their costs summed in that order, matching
// plan.Assemble's postpone-cross-products total.
//
// Determinism: the planner is a pure function of (query, model). Ties
// are broken by the lowest canonical relation ID (candidates are
// scanned in ascending ID order and only a strictly cheaper join
// displaces the incumbent pick), so two runs over the same canonical
// query produce byte-identical orders.
//
// Allocation discipline: New does all the allocating (join graph and
// its CSR view, estimator statistics, bitset frontier, scratch and
// result buffers); Plan is a //ljqlint:hotpath function that reuses
// those buffers and returns a pointer into the planner.
// BenchmarkGreedyPlan20 carries a 0-allocs/op ceiling in
// ALLOC_BUDGETS.json.
//
// The package deliberately does not charge a cost.Budget: greedy work
// is bounded by construction (O(V·(V+E)) JoinCost calls), and the
// Result's Work counter reports it after the fact.
package greedy

import (
	"math"

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

// Planner is a reusable greedy planner for one query. Build with New
// (which allocates everything Plan will ever need), then call Plan any
// number of times. Not safe for concurrent use.
type Planner struct {
	model cost.Model

	// stats sizes every join, exactly as plan.Evaluator does; csr is
	// its join graph's flat adjacency view, whose neighbor masks answer
	// "does this candidate join the frontier?" with a word-AND.
	stats *estimate.Stats
	csr   *joingraph.CSR

	// comps holds the relations of each connected component (ascending
	// IDs within a component), segmented by compOff.
	comps   []catalog.RelID
	compOff []int32

	// frontier is the joined-so-far membership bitset, reused per
	// component; scratch holds each component's greedy order in comps
	// segmentation; segSize/segCost record each component's final size
	// and summed join cost; segIdx is the combination-order sort
	// permutation; order is the concatenated final order.
	frontier joingraph.Bitset
	scratch  []catalog.RelID
	segSize  []float64
	segCost  []float64
	segIdx   []int
	order    plan.Perm

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

	p.frontier = joingraph.NewBitset(n)
	p.scratch = make([]catalog.RelID, n)
	p.segSize = make([]float64, len(comps))
	p.segCost = make([]float64, len(comps))
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

// planComponent greedily orders component c into the scratch buffer,
// recording its final size and summed join cost.
//
//ljqlint:hotpath
func (p *Planner) planComponent(c int) {
	a, b := int(p.compOff[c]), int(p.compOff[c+1])
	p.frontier.Reset()
	// Seed with the smallest relation (ascending scan + strict < means
	// ties go to the lowest ID).
	seed := p.comps[a]
	for _, r := range p.comps[a+1 : b] {
		if p.stats.Cardinality(r) < p.stats.Cardinality(seed) {
			seed = r
		}
	}
	p.scratch[a] = seed
	p.frontier.Set(seed)
	size := p.stats.Cardinality(seed)
	totalCost := 0.0
	for filled := 1; filled < b-a; filled++ {
		best := catalog.RelID(-1)
		bestJoin := false
		bestCost := 0.0
		bestSize := 0.0
		for _, rid := range p.comps[a:b] {
			if p.frontier.Test(rid) {
				continue
			}
			card := p.stats.Cardinality(rid)
			// A cross product is what JoinSize returns for a relation
			// with no edge into the frontier, bit for bit (its
			// selectivity is exactly 1); the word-AND spares the walk.
			res := size * card
			joined := p.csr.JoinsInto(rid, p.frontier)
			if joined {
				res = p.stats.JoinSize(size, p.frontier, rid)
			}
			jc := p.model.JoinCost(size, card, res)
			p.work++
			// Joinable candidates strictly dominate cross products (the
			// cross arm is defensive: a connected component always has a
			// joinable candidate); among equals, only a strictly cheaper
			// join displaces the incumbent, so ties keep the lowest ID.
			if best < 0 || (joined && !bestJoin) || (joined == bestJoin && jc < bestCost) {
				best, bestJoin, bestCost, bestSize = rid, joined, jc, res
			}
		}
		p.scratch[a+filled] = best
		p.frontier.Set(best)
		size = bestSize
		totalCost += bestCost
	}
	p.segSize[c] = size
	p.segCost[c] = totalCost
}
