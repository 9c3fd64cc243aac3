package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/joingraph"
	"joinopt/internal/workload"
)

// oracleSelectivityInto is SelectivityInto as it stood before the
// factor lane: every call walks inner's CSR incidences, loads each
// one's joingraph.Edge and prices it from the edge's fields.
func oracleSelectivityInto(s *Stats, outerSize float64, inSet joingraph.Bitset, inner catalog.RelID) float64 {
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

// sameBits reports whether got is want bit for bit, or NaN where want
// is NaN: NaN payloads may differ.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(want) && math.IsNaN(got))
}

// oracleCounts are special distinct counts: zero and one half (no
// distinct statistics), one, the prefix sizes 7 and 50 of
// oracleSizes, and the non-finite ones nothing validates away.
var oracleCounts = []float64{0, 0.5, 1, 7, 50, math.Inf(1), math.NaN()}

// oracleSizes are the prefix sizes every (set, relation) pair is priced
// at: the clamp's boundary at 1e-12 and both sides of it, sizes equal
// to and next to the special counts, and the non-finite ones.
var oracleSizes = []float64{
	0, 1e-13, 1e-12, math.Nextafter(1e-12, 1), 0.5, 1, math.Nextafter(1, 0), math.Nextafter(1, 2),
	7, math.Nextafter(7, 0), 50, 1234.5, 1e6, 1e30, -1, math.Inf(1), math.Inf(-1), math.NaN(),
}

// perturb rewrites q's predicates into the corner cases the lane must
// reproduce: special distinct counts on either side, explicit
// selectivities beside distinct counts (a residual other than 1),
// selectivity-only predicates, aligned, misaligned and one-sided
// histograms, and parallel predicates that joingraph.New merges.
func perturb(q *catalog.Query, rng *rand.Rand) {
	hist := func(domain int64, buckets int) *catalog.Histogram {
		h := &catalog.Histogram{Domain: domain, Counts: make([]float64, buckets)}
		for b := range h.Counts {
			h.Counts[b] = float64(rng.Intn(100))
		}
		return h
	}
	special := func(d float64) float64 {
		if rng.Intn(3) == 0 {
			return oracleCounts[rng.Intn(len(oracleCounts))]
		}
		return d
	}
	n := len(q.Predicates)
	for i := 0; i < n; i++ {
		p := &q.Predicates[i]
		switch rng.Intn(8) {
		case 0: // selectivity only
			p.LeftDistinct, p.RightDistinct = 0, 0
			p.Selectivity = rng.Float64()
		case 1: // aligned histograms
			p.LeftHist, p.RightHist = hist(64, 8), hist(64, 8)
		case 2: // misaligned histograms: the flat model decides
			p.LeftHist, p.RightHist = hist(64, 8), hist(64, 4)
			p.LeftDistinct = special(p.LeftDistinct)
		case 3: // a histogram on one side only
			p.RightHist = hist(32, 4)
			p.RightDistinct = special(p.RightDistinct)
		case 4: // an explicit selectivity beside distinct counts
			p.Selectivity = rng.Float64()
			p.LeftDistinct, p.RightDistinct = special(p.LeftDistinct), special(p.RightDistinct)
		case 5: // a parallel predicate, merged into the first
			dup := *p
			dup.Selectivity = rng.Float64()
			dup.LeftDistinct, dup.RightDistinct = special(dup.LeftDistinct), special(dup.RightDistinct)
			if rng.Intn(2) == 0 {
				dup.Left, dup.Right = dup.Right, dup.Left
				dup.LeftDistinct, dup.RightDistinct = dup.RightDistinct, dup.LeftDistinct
			}
			q.Predicates = append(q.Predicates, dup)
		default:
			p.LeftDistinct, p.RightDistinct = special(p.LeftDistinct), special(p.RightDistinct)
		}
	}
}

// oracleCase is one corpus query with a name for failures.
type oracleCase struct {
	name string
	q    *catalog.Query
}

// oracleCorpus is workload.Default() and every workload.Shapes
// topology at 2–60 relations, each as generated and perturbed.
func oracleCorpus(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	add := func(name string, q *catalog.Query, seed int64) {
		cases = append(cases, oracleCase{name, q})
		p := q.Clone()
		perturb(p, rand.New(rand.NewSource(seed)))
		cases = append(cases, oracleCase{name + "/perturbed", p})
	}
	for n := 2; n <= 60; n++ {
		seed := int64(n)
		add(fmt.Sprintf("default/n=%d", n), workload.Default().Generate(n-1, rand.New(rand.NewSource(seed))), seed)
		for _, sh := range workload.Shapes {
			q, err := workload.Default().GenerateShape(sh, n, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s n=%d: generate: %v", sh, n, err)
			}
			add(fmt.Sprintf("%s/n=%d", sh, n), q, seed*7+int64(sh))
		}
	}
	return cases
}

// TestDifferentialSelectivityMatchesOracle pins the factor lane to the
// edge walk it replaced. Over every corpus query in static and dynamic
// mode, for every relation, random prefix sets and every oracleSizes
// size, SelectivityInto and JoinSize return the oracle's bits (NaN
// where it is NaN), and UnclampedSelectivityInto's product does too
// wherever S ≥ its threshold. NeighborSelectivity returns, bit for bit,
// what UnclampedSelectivityInto returns for the set holding the
// incidence's relation alone.
func TestDifferentialSelectivityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var compared, cached, nan int
	for _, c := range oracleCorpus(t) {
		g := joingraph.New(c.q)
		for _, static := range []bool{false, true} {
			s := NewStats(c.q, g)
			if static {
				s.UseStaticSelectivity()
			}
			n := c.q.NumRelations()
			set := joingraph.NewBitset(n)
			for trial := 0; trial < 4; trial++ {
				// Densities from sparse to nearly full; the last trial
				// takes every relation.
				density := []float64{0.2, 0.5, 0.8, 1}[trial]
				set.Reset()
				for r := 0; r < n; r++ {
					if rng.Float64() < density {
						set.Set(catalog.RelID(r))
					}
				}
				for r := 0; r < n; r++ {
					inner := catalog.RelID(r)
					if trial == 0 {
						checkNeighborSelectivity(t, c.name, s, inner)
					}
					sel, thr := s.UnclampedSelectivityInto(set, inner)
					for _, size := range oracleSizes {
						want := oracleSelectivityInto(s, size, set, inner)
						wantSize := size * s.Cardinality(inner) * want
						if got := s.SelectivityInto(size, set, inner); !sameBits(got, want) {
							t.Fatalf("%s static=%v inner=%d S=%g: SelectivityInto %v (%#x), oracle %v (%#x)",
								c.name, static, r, size, got, math.Float64bits(got), want, math.Float64bits(want))
						}
						if got := s.JoinSize(size, set, inner); !sameBits(got, wantSize) {
							t.Fatalf("%s static=%v inner=%d S=%g: JoinSize %v, oracle %v", c.name, static, r, size, got, wantSize)
						}
						compared++
						if math.IsNaN(want) {
							nan++
						}
						if !(size >= thr) {
							continue
						}
						if !sameBits(sel, want) {
							t.Fatalf("%s static=%v inner=%d S=%g thr=%g: cached product %v (%#x), oracle %v (%#x)",
								c.name, static, r, size, thr, sel, math.Float64bits(sel), want, math.Float64bits(want))
						}
						if got := size * s.Cardinality(inner) * sel; !sameBits(got, wantSize) {
							t.Fatalf("%s static=%v inner=%d S=%g: cached size %v, oracle %v", c.name, static, r, size, got, wantSize)
						}
						cached++
					}
				}
			}
		}
	}
	t.Logf("%d prices compared, %d of them through the cached product, %d NaN", compared, cached, nan)
	if cached < compared/3 || nan == 0 {
		t.Fatalf("%d of %d prices compared through the cached product, %d NaN: the corpus lost its reach", cached, compared, nan)
	}
}

// checkNeighborSelectivity compares NeighborSelectivity at each of u's
// incidences with UnclampedSelectivityInto over the set {u}.
func checkNeighborSelectivity(t *testing.T, name string, s *Stats, u catalog.RelID) {
	t.Helper()
	csr := s.graph.CSR()
	only := joingraph.NewBitset(s.query.NumRelations())
	only.Set(u)
	for k := csr.Off[u]; k < csr.Off[u+1]; k++ {
		v := catalog.RelID(csr.Nbr[k])
		sel, thr := s.NeighborSelectivity(k)
		wantSel, wantThr := s.UnclampedSelectivityInto(only, v)
		if !sameBits(sel, wantSel) || !sameBits(thr, wantThr) {
			t.Fatalf("%s: NeighborSelectivity of %d→%d = (%v, %v), UnclampedSelectivityInto of %d into {%d} = (%v, %v)",
				name, u, v, sel, thr, v, u, wantSel, wantThr)
		}
	}
}
