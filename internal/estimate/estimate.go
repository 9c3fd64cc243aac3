// Package estimate implements the cardinality arithmetic used by the
// optimizer: effective cardinalities after selections and intermediate
// result sizes for outer linear join trees.
//
// The estimation model is the classical one the paper relies on: an
// equi-join of operands with sizes n₁ and n₂ linked by predicates with
// combined join selectivity J produces n₁·n₂·J tuples, where J for a
// single predicate is 1/max(D_left, D_right) unless given explicitly.
// When a relation joins the current intermediate result through several
// edges, the selectivities of all of them multiply.
package estimate

import (
	"math"

	"joinopt/internal/catalog"
	"joinopt/internal/joingraph"
)

// Stats caches the per-relation statistics of one query so hot paths
// never re-derive them.
type Stats struct {
	query *catalog.Query
	graph *joingraph.Graph
	// card[i] is the effective cardinality of relation i after
	// selections.
	card []float64
	// static disables dynamic distinct-value propagation (see
	// UseStaticSelectivity).
	static bool
}

// NewStats computes the per-relation statistics for q over its join
// graph g.
func NewStats(q *catalog.Query, g *joingraph.Graph) *Stats {
	s := &Stats{
		query: q,
		graph: g,
		card:  make([]float64, q.NumRelations()),
	}
	for i := range q.Relations {
		s.card[i] = q.Relations[i].EffectiveCardinality()
	}
	return s
}

// UseStaticSelectivity switches the estimator to the classical static
// model: every edge contributes its fixed selectivity 1/max(D_l, D_r)
// regardless of the intermediate result's size. Static estimates depend
// only on the *set* of joined relations, never their order — the
// assumption System-R-style dynamic programming requires — whereas the
// default dynamic model propagates distinct values (an S-tuple result
// carries at most S distinct values) and is therefore order-sensitive
// whenever intermediate results shrink below a column's distinct count.
func (s *Stats) UseStaticSelectivity() { s.static = true }

// Dynamic reports whether distinct-value propagation is enabled.
func (s *Stats) Dynamic() bool { return !s.static }

// Query returns the underlying query.
func (s *Stats) Query() *catalog.Query { return s.query }

// Graph returns the underlying join graph.
func (s *Stats) Graph() *joingraph.Graph { return s.graph }

// Cardinality returns the effective cardinality of relation id.
func (s *Stats) Cardinality(id catalog.RelID) float64 { return s.card[id] }

// JoinSize returns the estimated size of joining an intermediate result
// of outerSize tuples (covering the relations marked in inSet) with base
// relation inner. Relations with no join edge into the set contribute a
// cross product (selectivity 1).
//
// By default the estimator propagates distinct values: an intermediate
// result of S tuples cannot carry more than S distinct values in any
// column, so the effective join selectivity of an edge whose prefix-side
// column had D distinct values is 1/max(min(D, S), D_inner). This is the
// effect the paper's §4.1 credits for criterion 3's win — small
// intermediate results crush distinct counts, which inflates later join
// results. The propagation makes estimates order-sensitive on
// collapsing trajectories; UseStaticSelectivity switches to the
// classical order-independent model (required by the DP baseline).
// Predicates carrying an explicit selectivity but no distinct counts
// always use that static selectivity.
func (s *Stats) JoinSize(outerSize float64, inSet joingraph.Bitset, inner catalog.RelID) float64 {
	sel := s.SelectivityInto(outerSize, inSet, inner)
	// Expected sizes are kept fractional (no one-tuple floor): clamping
	// would erase the cost differences between plans whose intermediate
	// results all collapse, flattening exactly the signal the search
	// strategies compete on.
	return outerSize * s.card[inner] * sel
}

// SelectivityInto returns the combined (dynamic) join selectivity of all
// edges linking relation inner to the prefix set, given the prefix's
// current size. See JoinSize for the model. It walks inner's CSR
// incidences, which keep merged-edge order, so the product always
// accumulates in the same order.
func (s *Stats) SelectivityInto(outerSize float64, inSet joingraph.Bitset, inner catalog.RelID) float64 {
	sel := 1.0
	csr := s.graph.CSR()
	edges := s.graph.Edges()
	for k := csr.Off[inner]; k < csr.Off[inner+1]; k++ {
		if !inSet.Test(catalog.RelID(csr.Nbr[k])) {
			continue
		}
		e := &edges[csr.EdgeIdx[k]]
		// Histograms, when both sides carry aligned ones, dominate the
		// flat models: they capture skew neither distinct counts nor a
		// single selectivity can. Histogram selectivities are used
		// as-is in both estimator modes (they already encode the full
		// value distribution).
		if j, ok := e.FromHist.JoinSelectivity(e.ToHist); ok {
			sel *= j
			continue
		}
		dInner, dOuter := e.FromDistinct, e.ToDistinct
		if e.From != inner {
			dInner, dOuter = dOuter, dInner
		}
		if dInner < 1 || dOuter < 1 {
			// No distinct statistics: use the static selectivity.
			sel *= e.Selectivity
			continue
		}
		// residual preserves any selectivity beyond the distinct-count
		// model: merged parallel predicates and user-supplied explicit
		// selectivities. It is exactly 1 for a plain normalized edge,
		// so in static mode base·residual reproduces e.Selectivity.
		residual := e.Selectivity * maxf(dInner, dOuter)
		if !s.static {
			dOuter = minf(dOuter, maxf(outerSize, 1e-12))
		}
		sel *= residual / maxf(dOuter, dInner)
	}
	return sel
}

// maxf returns exactly what math.Max returns for every input, NaN, ±Inf
// and ±0 included, but inlines: only unordered or equal operands reach
// math.Max, which amd64 implements in assembly that never inlines. The
// builtin max is not a substitute: max(+Inf, NaN) is NaN where
// math.Max gives +Inf, and nothing validates distinct counts as finite.
func maxf(x, y float64) float64 {
	if x > y {
		return x
	}
	if x < y {
		return y
	}
	return math.Max(x, y)
}

// minf is maxf's counterpart for math.Min.
func minf(x, y float64) float64 {
	if x < y {
		return x
	}
	if x > y {
		return y
	}
	return math.Min(x, y)
}

// Prefix incrementally tracks the intermediate-result size of a growing
// join prefix. It is the workhorse of plan costing: Extend appends one
// relation, returning the (outer, inner, result) sizes of the join it
// induces.
type Prefix struct {
	stats *Stats
	inSet joingraph.Bitset
	size  float64
	n     int
}

// NewPrefix returns an empty prefix over the statistics.
func NewPrefix(s *Stats) *Prefix {
	return &Prefix{
		stats: s,
		inSet: joingraph.NewBitset(s.query.NumRelations()),
	}
}

// Reset empties the prefix for reuse.
func (p *Prefix) Reset() {
	p.inSet.Reset()
	p.size = 0
	p.n = 0
}

// Len returns the number of relations in the prefix.
func (p *Prefix) Len() int { return p.n }

// Size returns the current intermediate-result size (0 for an empty
// prefix; the base cardinality after one Extend).
func (p *Prefix) Size() float64 { return p.size }

// Contains reports whether relation id is already in the prefix.
func (p *Prefix) Contains(id catalog.RelID) bool { return p.inSet.Test(id) }

// InSet exposes the membership bitset; callers must not modify it.
func (p *Prefix) InSet() joingraph.Bitset { return p.inSet }

// Extend appends relation id. For the first relation it returns
// (0, card, card) with no join. For subsequent relations it returns the
// outer size before the join, the inner (base) cardinality, and the
// result size after the join.
func (p *Prefix) Extend(id catalog.RelID) (outer, inner, result float64) {
	inner = p.stats.Cardinality(id)
	if p.n == 0 {
		p.size = inner
		p.inSet.Set(id)
		p.n = 1
		return 0, inner, inner
	}
	outer = p.size
	result = p.stats.JoinSize(outer, p.inSet, id)
	p.size = result
	p.inSet.Set(id)
	p.n++
	return outer, inner, result
}

// CopyFrom overwrites p's state with a copy of src's. Both prefixes must
// belong to the same Stats. Used to fork a base prefix cheaply when many
// alternative extensions of the same prefix are priced (local
// improvement's cluster enumeration).
func (p *Prefix) CopyFrom(src *Prefix) {
	copy(p.inSet, src.inSet)
	p.size = src.size
	p.n = src.n
}

// Joins reports whether relation id joins (via at least one predicate)
// with some relation already in the prefix.
func (p *Prefix) Joins(id catalog.RelID) bool {
	return p.stats.Graph().JoinsInto(id, p.inSet)
}
