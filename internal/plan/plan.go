// Package plan represents outer linear (left-deep) join trees as
// permutations of relations, checks their validity (no cross product
// inside a connected component of the join graph), and prices them
// against a cost model while metering the optimization budget.
//
// Per the paper's §2, each join tree over one component is equivalently a
// permutation: the inner operand of every join is a base relation and the
// outer operand is the intermediate result of the prefix. Queries whose
// join graph has several components are handled by the "postpone cross
// products as late as possible" heuristic: each component is optimized
// separately and the component results are then joined by cross products.
package plan

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"joinopt/internal/analysis/invariant"
	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/joingraph"
)

// EvalUnitsPerJoin is the budget charge per join inside a cost-function
// evaluation. A full evaluation step does strictly more work than the
// single-selectivity scans the heuristics and validity checks pay one
// unit for: size estimation plus cost-model arithmetic plus, in
// move-based search, candidate-state construction. The ratio sets the
// relative speed of heuristic state generation versus move-based
// descent, which is what positions the paper's AGI→IAI crossover;
// BenchmarkAblationUnitScale probes the overall budget scale's effect.
const EvalUnitsPerJoin = 4

// Perm is an ordering of relation IDs: the left-deep join order.
type Perm []catalog.RelID

// Clone returns a copy of the permutation.
func (p Perm) Clone() Perm {
	c := make(Perm, len(p))
	copy(c, p)
	return c
}

// String renders the permutation in the paper's notation, e.g.
// "(R0 R3 R1 R2)".
func (p Perm) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, r := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "R%d", r)
	}
	b.WriteByte(')')
	return b.String()
}

// FaultInjector is an optional test hook an Evaluator consults once per
// full cost evaluation. Implementations may panic (simulating a crash in
// cost-model or estimator code) or corrupt the returned cost (NaN/±Inf),
// and may cancel the budget on the side (starvation). The canonical
// implementation is internal/faultinject; the interface lives here so
// the plan package does not depend on the harness.
type FaultInjector interface {
	// Eval receives the computed total cost and returns the cost the
	// evaluator should report. It is called after the budget charge.
	Eval(cost float64) float64
}

// Evaluator prices permutations for one query under one cost model,
// debiting the budget for every evaluation and validity check. It is
// not safe for concurrent use; create one per goroutine.
type Evaluator struct {
	stats  *estimate.Stats
	model  cost.Model
	budget *cost.Budget
	// inSet is the membership scratch of validity checks and pricing.
	inSet joingraph.Bitset
	fault FaultInjector
}

// NewEvaluator returns an evaluator over the query statistics. budget
// may be cost.Unlimited().
func NewEvaluator(stats *estimate.Stats, model cost.Model, budget *cost.Budget) *Evaluator {
	return &Evaluator{
		stats:  stats,
		model:  model,
		budget: budget,
		inSet:  joingraph.NewBitset(stats.Query().NumRelations()),
	}
}

// Stats returns the underlying statistics.
func (e *Evaluator) Stats() *estimate.Stats { return e.stats }

// Model returns the cost model.
func (e *Evaluator) Model() cost.Model { return e.model }

// Budget returns the shared budget.
func (e *Evaluator) Budget() *cost.Budget { return e.budget }

// SetFaultInjector installs (or, with nil, removes) a fault-injection
// hook consulted on every cost evaluation. Test-only machinery: the
// production path never sets one.
func (e *Evaluator) SetFaultInjector(fi FaultInjector) { e.fault = fi }

// Trail records how one permutation was priced, position by position:
// Size[i] is the intermediate-result size after joining positions
// [0, i] and Total[i] the running cost of those joins (Total[0] is 0).
// A permutation that shares positions [0, k) with the recorded one can
// be priced from position k on (CostFrom) with the same arithmetic, in
// the same order, as a full Cost.
type Trail struct {
	Size, Total []float64
}

// Cost prices the permutation: the sum of join costs along the prefix.
// It charges EvalUnitsPerJoin budget units per join. Validity is not
// checked; an invalid permutation is priced with the implied cross
// products.
func (e *Evaluator) Cost(p Perm) float64 {
	total := e.price(p, 0, Trail{})
	// +Inf is legitimate saturation (estimator overflow), NaN never is.
	// Asserted before fault injection: injected NaN is the test
	// machinery's deliberate poison and must pass through.
	if invariant.Enabled {
		invariant.NotNaN(total, "evaluator total cost")
	}
	return e.inject(total)
}

// CostFrom prices p like Cost, resuming at position from: tr must hold
// the Size and Total entries of a permutation that shares positions
// [0, from) with p, and CostFrom records p's entries for positions
// [from, len(p)) into it. The joins from position from on are added to
// Total[from-1] in the same order a full Cost adds them, so the result
// equals Cost(p) bit for bit.
//
// Resuming saves arithmetic, not budget: the evaluation still charges
// the full EvalUnitsPerJoin·(len(p)−1) and consults the fault injector
// once, since the units meter the paper's model of optimization work,
// not this implementation's.
func (e *Evaluator) CostFrom(p Perm, from int, tr Trail) float64 {
	total := e.price(p, from, tr)
	if invariant.Enabled {
		invariant.NotNaN(total, "evaluator total cost")
	}
	return e.inject(total)
}

// inject hands a computed total to the fault injector, if one is set.
func (e *Evaluator) inject(total float64) float64 {
	if e.fault != nil {
		return e.fault.Eval(total)
	}
	return total
}

// price is the pricing loop behind every evaluation. It seeds the
// intermediate size and running total from tr at from-1 (or from
// p[0]'s cardinality when from is 0), adds one join per remaining
// position — recording each into tr unless tr is the zero Trail — and
// charges the evaluation once, EvalUnitsPerJoin per join of p.
func (e *Evaluator) price(p Perm, from int, tr Trail) float64 {
	if len(p) == 0 {
		return 0
	}
	record := tr.Size != nil
	set := e.inSet
	set.Reset()
	var size, total float64
	if from == 0 {
		size = e.stats.Cardinality(p[0])
		if record {
			tr.Size[0], tr.Total[0] = size, 0
		}
		from = 1
	} else {
		size, total = tr.Size[from-1], tr.Total[from-1]
	}
	for _, r := range p[:from] {
		set.Set(r)
	}
	for i := from; i < len(p); i++ {
		r := p[i]
		result := e.stats.JoinSize(size, set, r)
		total += e.model.JoinCost(size, e.stats.Cardinality(r), result)
		set.Set(r)
		size = result
		if record {
			tr.Size[i], tr.Total[i] = size, total
		}
	}
	e.budget.Charge(EvalUnitsPerJoin * int64(len(p)-1))
	return total
}

// Valid reports whether p is a valid permutation of one component:
// every relation after the first joins with at least one predecessor.
// Each per-relation frontier check debits one budget unit — checking
// validity is adjacency work of the same order as a join-size
// computation, and it is a real cost of move-based search (most random
// swaps of a valid permutation are invalid, so descent pays for many
// checks per accepted move, exactly as wall-clock time charged the
// paper's optimizers). A check is a word-AND of the relation's
// neighbor mask against the membership bitset of its predecessors.
func (e *Evaluator) Valid(p Perm) bool {
	return e.ValidSuffixFrom(p, 1)
}

// ValidSuffixFrom reports whether p would remain valid if positions
// from..len(p)-1 keep their relations, assuming the prefix [0,from) is
// already known valid. Used to short-circuit move validity checks.
// Budget is charged per frontier check, as in Valid.
func (e *Evaluator) ValidSuffixFrom(p Perm, from int) bool {
	if from < 1 {
		from = 1
	}
	if len(p) <= from {
		return true
	}
	set := e.inSet
	set.Reset()
	for _, r := range p[:from] {
		set.Set(r)
	}
	graph := e.stats.Graph()
	for i, r := range p[from:] {
		if !graph.JoinsInto(r, set) {
			e.budget.Charge(int64(i + 1))
			return false
		}
		set.Set(r)
	}
	e.budget.Charge(int64(len(p) - from))
	return true
}

// Result carries an optimized permutation of one component with its cost.
type Result struct {
	Perm Perm
	Cost float64
}

// Degradation reasons recorded in Plan.DegradeReason. A run can degrade
// for several reasons at once; the recorded reason is the most severe
// (panic > cancellation > starvation).
const (
	// DegradePanic: a strategy phase panicked; the plan is the incumbent
	// found before the crash or a heuristic/random fallback.
	DegradePanic = "panic"
	// DegradeCancelled: the run was cancelled (context or Budget.Cancel)
	// before the strategy finished; the plan is the best found so far.
	DegradeCancelled = "cancelled"
	// DegradeStarved: the budget was exhausted (or the strategy produced
	// nothing) before any search result existed; the plan comes from the
	// deterministic augmentation fallback or a random valid state.
	DegradeStarved = "starved"
)

// Plan is a complete query evaluation plan: the per-component join
// orders (already optimized), the order in which component results are
// combined by cross products, and the total cost.
type Plan struct {
	// Components holds one optimized result per join-graph component, in
	// combination order (smallest result first, per the postpone-cross-
	// products heuristic).
	Components []Result
	// CrossCost is the cost of the cross-product joins combining the
	// component results (zero for connected queries).
	CrossCost float64
	// TotalCost is the sum of component costs plus CrossCost.
	TotalCost float64
	// Degraded reports that the optimizer could not complete normally —
	// it was cancelled, a phase panicked, or the budget starved before
	// any search result existed — and fell back per the anytime
	// contract. The plan is still valid and executable; Degraded flags
	// that its quality is whatever the fallback chain could salvage.
	// Ordinary unit-limit exhaustion is NOT degradation: stopping on
	// budget is the normal anytime stop.
	Degraded bool
	// DegradeReason is one of the Degrade* constants when Degraded, with
	// optional detail after a ": " separator (e.g. the panic value).
	DegradeReason string
}

// Order returns the full relation ordering of the plan: the
// concatenation of component permutations in combination order.
func (pl *Plan) Order() Perm {
	var out Perm
	for _, c := range pl.Components {
		out = append(out, c.Perm...)
	}
	return out
}

// Explain renders a human-readable description of the plan.
func (pl *Plan) Explain(q *catalog.Query) string {
	return string(pl.AppendExplain(nil, q, nil))
}

// AppendExplain appends Explain's rendering to dst, with the plan's
// positions mapped through order: position p names q's relation
// order[p]. A nil order is the identity. Costs print as %.6g does;
// strconv's 'g' format at precision 6 is byte for byte the same.
func (pl *Plan) AppendExplain(dst []byte, q *catalog.Query, order []catalog.RelID) []byte {
	dst = append(dst, "plan: total cost "...)
	dst = strconv.AppendFloat(dst, pl.TotalCost, 'g', 6, 64)
	dst = append(dst, '\n')
	if pl.Degraded {
		dst = append(dst, "  DEGRADED ("...)
		dst = append(dst, pl.DegradeReason...)
		dst = append(dst, "): the optimizer could not complete normally; this is the fallback plan\n"...)
	}
	for i, c := range pl.Components {
		dst = append(dst, "  component "...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, " (cost "...)
		dst = strconv.AppendFloat(dst, c.Cost, 'g', 6, 64)
		dst = append(dst, "): "...)
		for j, r := range c.Perm {
			if j > 0 {
				dst = append(dst, " ⋈ "...)
			}
			if order != nil {
				r = order[r]
			}
			dst = AppendRelationName(dst, q, r)
		}
		dst = append(dst, '\n')
	}
	if len(pl.Components) > 1 {
		dst = append(dst, "  cross products: cost "...)
		dst = strconv.AppendFloat(dst, pl.CrossCost, 'g', 6, 64)
		dst = append(dst, '\n')
	}
	return dst
}

// AppendRelationName appends q.RelationName(id) to dst without
// building the "R<id>" fallback as a string.
func AppendRelationName(dst []byte, q *catalog.Query, id catalog.RelID) []byte {
	if int(id) < len(q.Relations) && q.Relations[id].Name != "" {
		return append(dst, q.Relations[id].Name...)
	}
	return strconv.AppendInt(append(dst, 'R'), int64(id), 10)
}

// Assemble combines per-component optimized results into a full plan,
// pricing the cross products that join the component results. Component
// results are combined in order of increasing estimated size, which
// postpones the largest cross products as long as possible.
func Assemble(e *Evaluator, comps []Result) *Plan {
	pl := &Plan{Components: append([]Result(nil), comps...)}
	// Estimated final size of each component result.
	sizes := make([]float64, len(pl.Components))
	for i, c := range pl.Components {
		sizes[i] = componentSize(e.stats, c.Perm)
	}
	idx := make([]int, len(pl.Components))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sizes[idx[a]] < sizes[idx[b]] })
	ordered := make([]Result, len(idx))
	for i, j := range idx {
		ordered[i] = pl.Components[j]
	}
	pl.Components = ordered

	total := 0.0
	for _, c := range pl.Components {
		total += c.Cost
	}
	// Cross products between component results.
	if len(pl.Components) > 1 {
		acc := componentSize(e.stats, pl.Components[0].Perm)
		for i := 1; i < len(pl.Components); i++ {
			sz := componentSize(e.stats, pl.Components[i].Perm)
			result := acc * sz
			pl.CrossCost += e.model.JoinCost(acc, sz, result)
			e.budget.Charge(1)
			acc = result
		}
	}
	pl.TotalCost = total + pl.CrossCost
	return pl
}

// componentSize estimates the result size of a component's permutation.
//
//ljqlint:allow budgetcharge -- assembly-time sizing outside the search loop; charging here would perturb the Used() counts the determinism tests pin
func componentSize(s *estimate.Stats, p Perm) float64 {
	pre := estimate.NewPrefix(s)
	for _, r := range p {
		pre.Extend(r)
	}
	return pre.Size()
}
