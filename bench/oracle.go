package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/fingerprint"
	"joinopt/internal/joingraph"
	"joinopt/internal/plan"
)

// pricer re-costs orders of one query the way the optimizer's tier 2
// does: dynamic estimator, memory model, no budget.
type pricer struct {
	q     *catalog.Query
	fp    fingerprint.Fingerprint
	graph *joingraph.Graph
	stats *estimate.Stats
	eval  *plan.Evaluator
}

func newPricer(q *catalog.Query) *pricer {
	q.Normalize()
	g := joingraph.New(q)
	st := estimate.NewStats(q, g)
	return &pricer{
		q:     q,
		fp:    fingerprint.Of(q),
		graph: g,
		stats: st,
		eval:  plan.NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited()),
	}
}

// referenceCost prices the bench's own frozen left-deep order: start at
// the smallest relation, then keep appending the joinable relation that
// gives the smallest intermediate result. It lives in the benchmark so
// that a change to the planners under test never moves the yardstick
// plan_cost_ratio divides by.
func (p *pricer) referenceCost() float64 {
	n := p.q.NumRelations()
	pre := estimate.NewPrefix(p.stats)
	order := make(plan.Perm, 0, n)
	for len(order) < n {
		best, bestSize, bestJoins := catalog.RelID(-1), 0.0, false
		for r := catalog.RelID(0); int(r) < n; r++ {
			if pre.Contains(r) {
				continue
			}
			joins := pre.Len() > 0 && p.graph.JoinsInto(r, pre.InSet())
			size := p.stats.Cardinality(r)
			if joins {
				size = p.stats.JoinSize(pre.Size(), pre.InSet(), r)
			}
			if best < 0 || (joins && !bestJoins) || (joins == bestJoins && size < bestSize) {
				best, bestSize, bestJoins = r, size, joins
			}
		}
		pre.Extend(best)
		order = append(order, best)
	}
	return p.eval.Cost(order)
}

// errOracle marks a response the oracle rejected.
var errOracle = errors.New("oracle")

// check verifies one successful response against its query and returns
// the bench's re-cost of the served order. expected, when non-nil, is the
// cost the bench wrote for this shape, which must come back bit for bit.
func (p *pricer) check(rec *record, expected *float64) (float64, error) {
	if rec.Malformed {
		return 0, fmt.Errorf("%w: malformed fingerprint or order", errOracle)
	}
	n := p.q.NumRelations()
	order := rec.order()
	if len(order) != n {
		return 0, fmt.Errorf("%w: order has %d relations, query %d", errOracle, len(order), n)
	}
	seen := make([]bool, n)
	perm := make(plan.Perm, n)
	for i, r := range order {
		if int(r) >= n || seen[r] {
			return 0, fmt.Errorf("%w: order %v is not a permutation", errOracle, order)
		}
		seen[r] = true
		perm[i] = catalog.RelID(r)
	}
	if !p.eval.Valid(perm) {
		return 0, fmt.Errorf("%w: order %v has a cross product", errOracle, order)
	}
	if rec.FP != p.fp {
		return 0, fmt.Errorf("%w: fingerprint %s, want %s", errOracle, rec.FP.Short(), p.fp.Short())
	}
	recost := p.eval.Cost(perm)
	switch rec.Tier {
	case 1:
		// Tier 1 prices under the static estimator; not comparable.
	case 2:
		if math.Abs(rec.Cost-recost) > 1e-9*math.Abs(recost) {
			return 0, fmt.Errorf("%w: tier-2 cost %v, re-cost %v", errOracle, rec.Cost, recost)
		}
	default:
		return 0, fmt.Errorf("%w: tier %d", errOracle, rec.Tier)
	}
	if expected != nil && math.Float64bits(rec.Cost) != math.Float64bits(*expected) {
		return 0, fmt.Errorf("%w: served cost %v, the bench wrote %v", errOracle, rec.Cost, *expected)
	}
	return recost, nil
}

// verdict is the oracle's result for a set of records, index-aligned.
type verdict struct {
	recost, ref []float64 // re-cost of the served order, reference cost
	bad         []error   // oracle rejection, nil if accepted or failed earlier
}

// verify checks every successful record. Records are grouped by shape so
// each query is rebuilt and priced once; expected maps fingerprints to
// the costs the bench wrote (restart-1e5), nil otherwise.
func verify(p *pool, recs []record, expected map[fingerprint.Fingerprint]float64) *verdict {
	v := &verdict{
		recost: make([]float64, len(recs)),
		ref:    make([]float64, len(recs)),
		bad:    make([]error, len(recs)),
	}
	groups := map[int32][]int{}
	for i := range recs {
		if recs[i].OK {
			groups[recs[i].Shape] = append(groups[recs[i].Shape], i)
		}
	}
	shapes := make([]int32, 0, len(groups))
	for s := range groups {
		shapes = append(shapes, s)
	}
	sort.Slice(shapes, func(a, b int) bool { return shapes[a] < shapes[b] })
	parallel(len(shapes), func(k int) {
		idx := groups[shapes[k]] // read-only from here on
		pr := newPricer(p.query(shapes[k]))
		var want *float64
		if expected != nil {
			c, ok := expected[pr.fp]
			if !ok {
				for _, i := range idx {
					v.bad[i] = fmt.Errorf("%w: shape %d is not in the pre-built cache", errOracle, shapes[k])
				}
				return
			}
			want = &c
		}
		ref := pr.referenceCost()
		for _, i := range idx {
			v.ref[i] = ref
			v.recost[i], v.bad[i] = pr.check(&recs[i], want)
		}
	})
	return v
}
