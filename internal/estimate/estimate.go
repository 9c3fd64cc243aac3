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
//
// NewStats prices every edge once per direction, before any join is
// sized: one factor record per incidence of the join graph's CSR, in CSR
// order, so a relation's records sit in the order its merged edges were
// numbered. A record is fixed — the histogram join selectivity when both
// sides carry aligned histograms, else the predicate's selectivity when a
// side lacks distinct counts — or a distinct-count factor, holding its
// residual selectivity, the distinct counts dInner and dOuter oriented
// from the relation, and its unclamped value residual/max(dOuter,
// dInner). SelectivityInto multiplies, in lane order, the factors whose
// neighbor is in the prefix: a fixed factor as it is, and a
// distinct-count factor as its unclamped value when the estimator is
// static or dOuter ≤ max(S, 1e-12) for prefix size S, which loads no
// edge and divides nothing; only a factor whose prefix side the prefix
// has shrunk below is clamped, 1/max(min(dOuter, S), dInner) times its
// residual. Every result equals, bit for bit, the edge walk
// oracle_test.go keeps as its oracle, and is NaN where that is NaN.
// UnclampedSelectivityInto returns a relation's unclamped product into
// a set together with the prefix size from which it is exact, so a
// caller pricing one relation at many prefix sizes over the same set,
// as the greedy planner does, multiplies its factors once. Only the
// factors that vary with the prefix size raise that threshold: a
// distinct-count factor whose prefix-side count is at most its inner
// count divides by the inner count at every size. NeighborSelectivity
// returns the same pair for a set holding one neighbor, read from that
// neighbor's record of the edge.
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
	// lane holds one factor record of factorWords float64s per CSR
	// incidence, in CSR order (see the package doc).
	lane []float64
	// static disables dynamic distinct-value propagation (see
	// UseStaticSelectivity).
	static bool
}

// The fields of a factor record, the join selectivity one incidence of
// relation inner contributes once its neighbor is in the prefix. A
// distinct-count factor holds its unclamped value
// residual / maxf(dOuter, dInner), then dOuter, residual and dInner,
// oriented from inner. A fixed factor is stored as (v, -Inf, v, 1):
// the clamp rule takes its value v at every prefix size, and at a NaN
// size, where the rule fails, the clamped expression gives
// v / maxf(minf(-Inf, NaN), 1) = v / 1 = v, since math.Min returns -Inf
// whenever either operand is -Inf.
const (
	factorValue = iota
	factorOuter
	factorResidual
	factorInner
	factorWords
)

// NewStats computes the per-relation statistics for q over its join
// graph g, and lays out the factor lane of g's CSR incidences.
func NewStats(q *catalog.Query, g *joingraph.Graph) *Stats {
	n := q.NumRelations()
	csr := g.CSR()
	// card and the lane are cut from one allocation.
	buf := make([]float64, n+factorWords*len(csr.Nbr))
	s := &Stats{
		query: q,
		graph: g,
		card:  buf[:n:n],
		lane:  buf[n:],
	}
	for i := range q.Relations {
		s.card[i] = q.Relations[i].EffectiveCardinality()
	}
	edges := g.Edges()
	for v := 0; v < n; v++ {
		for k := csr.Off[v]; k < csr.Off[v+1]; k++ {
			f := s.lane[factorWords*k : factorWords*(k+1)]
			setFactor(f, &edges[csr.EdgeIdx[k]], catalog.RelID(v))
		}
	}
	return s
}

// setFactor writes into f the factor e contributes when relation inner
// joins a prefix across it.
func setFactor(f []float64, e *joingraph.Edge, inner catalog.RelID) {
	// Histograms, when both sides carry aligned ones, dominate the flat
	// models: they capture skew neither distinct counts nor a single
	// selectivity can. Histogram selectivities are used as-is in both
	// estimator modes (they already encode the full value
	// distribution).
	if j, ok := e.FromHist.JoinSelectivity(e.ToHist); ok {
		setFixed(f, j)
		return
	}
	dInner, dOuter := e.FromDistinct, e.ToDistinct
	if e.From != inner {
		dInner, dOuter = dOuter, dInner
	}
	if dInner < 1 || dOuter < 1 {
		// No distinct statistics: use the static selectivity.
		setFixed(f, e.Selectivity)
		return
	}
	// residual preserves any selectivity beyond the distinct-count
	// model: merged parallel predicates and user-supplied explicit
	// selectivities. It is exactly 1 for a plain normalized edge, so in
	// static mode base·residual reproduces e.Selectivity.
	residual := e.Selectivity * maxf(dInner, dOuter)
	f[factorValue], f[factorOuter], f[factorResidual], f[factorInner] = residual/maxf(dOuter, dInner), dOuter, residual, dInner
}

// setFixed writes the record of a fixed factor v.
func setFixed(f []float64, v float64) {
	f[factorValue], f[factorOuter], f[factorResidual], f[factorInner] = v, math.Inf(-1), v, 1
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
// current size. See JoinSize for the model. It multiplies, in lane
// order, the factors of inner's incidences whose neighbor is in the
// set, so the product always accumulates in the same order.
//
//ljqlint:hotpath
func (s *Stats) SelectivityInto(outerSize float64, inSet joingraph.Bitset, inner catalog.RelID) float64 {
	// Static mode clamps nothing: at an infinite clamp every factor but
	// a NaN-count one takes its unclamped value, and a distinct-count
	// factor with a NaN count is NaN on either path.
	clamp := math.Inf(1)
	if !s.static {
		// The builtin max equals maxf here: it departs from math.Max
		// only on a NaN beside +Inf or on ±0 pairs, and 1e-12 is
		// neither.
		clamp = max(outerSize, 1e-12)
	}
	csr := s.graph.CSR()
	lo, hi := csr.Off[inner], csr.Off[inner+1]
	lane := s.lane[factorWords*lo : factorWords*hi]
	sel := 1.0
	for i, v := range csr.Nbr[lo:hi] {
		if !inSet.Test(catalog.RelID(v)) {
			continue
		}
		f := (*[factorWords]float64)(lane[factorWords*i:])
		if f[factorOuter] <= clamp {
			sel *= f[factorValue]
			continue
		}
		sel *= f[factorResidual] / maxf(minf(f[factorOuter], clamp), f[factorInner])
	}
	return sel
}

// UnclampedSelectivityInto returns the product, in lane order, of the
// unclamped values of inner's factors into inSet, and the threshold
// from which that product is SelectivityInto's: for every prefix size
// S >= thr, SelectivityInto(S, inSet, inner) == sel bit for bit. thr is
// the largest prefix-side distinct count among the factors that vary
// with S, NaN if any count is NaN, and -Inf when none varies. A
// distinct-count factor whose prefix-side count is at most its inner
// count does not vary: at every size its divisor is the inner count. A
// caller that prices inner at many prefix sizes over one set computes
// the product once.
//
//ljqlint:hotpath
func (s *Stats) UnclampedSelectivityInto(inSet joingraph.Bitset, inner catalog.RelID) (sel, thr float64) {
	csr := s.graph.CSR()
	lo, hi := csr.Off[inner], csr.Off[inner+1]
	lane := s.lane[factorWords*lo : factorWords*hi]
	sel, thr = 1, math.Inf(-1)
	for i, v := range csr.Nbr[lo:hi] {
		if !inSet.Test(catalog.RelID(v)) {
			continue
		}
		f := (*[factorWords]float64)(lane[factorWords*i:])
		sel *= f[factorValue]
		if !(f[factorOuter] <= f[factorInner]) {
			// The builtin max is NaN once any count is NaN.
			thr = max(thr, f[factorOuter])
		}
	}
	return sel, thr
}

// NeighborSelectivity returns what UnclampedSelectivityInto returns
// for relation v = CSR.Nbr[k] and any set that holds u, the relation
// incidence k belongs to, and none of v's other neighbors: the single
// factor of their edge seen from v. It reads u's record of the edge,
// whose value is v's (the unclamped value is symmetric in the two
// distinct counts) and whose counts are v's swapped.
//
//ljqlint:hotpath
func (s *Stats) NeighborSelectivity(k int32) (sel, thr float64) {
	f := (*[factorWords]float64)(s.lane[factorWords*k:])
	thr = f[factorInner]
	if math.IsInf(f[factorOuter], -1) || thr <= f[factorOuter] {
		// A fixed factor, or one whose count on u's side is at most
		// v's: it does not vary with the prefix size.
		thr = math.Inf(-1)
	}
	return f[factorValue], thr
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
