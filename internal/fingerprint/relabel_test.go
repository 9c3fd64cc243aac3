package fingerprint

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/workload"
)

// oracleRelabel is the clone-based Relabel that the one-pass version
// replaced, kept verbatim as the differential oracle: clone, normalize,
// remap the endpoints, normalize again, sort.
func oracleRelabel(q *catalog.Query, order []catalog.RelID) *catalog.Query {
	qc := q.Clone()
	qc.Normalize()
	n := len(qc.Relations)
	pos := make([]int, n)
	for i, old := range order {
		pos[old] = i
	}
	out := &catalog.Query{
		Relations:  make([]catalog.Relation, n),
		Predicates: make([]catalog.Predicate, len(qc.Predicates)),
	}
	for i, old := range order {
		out.Relations[i] = qc.Relations[old]
	}
	for i, p := range qc.Predicates {
		np := p
		np.Left = catalog.RelID(pos[p.Left])
		np.Right = catalog.RelID(pos[p.Right])
		np.Normalize() // restore Left < Right, swapping sides if needed
		out.Predicates[i] = np
	}
	oracleSortPredicates(out.Predicates)
	return out
}

// oracleSortPredicates is the oracle's predicate order, written against
// sort.SliceStable as it was.
func oracleSortPredicates(ps []catalog.Predicate) {
	sort.SliceStable(ps, func(a, b int) bool {
		pa, pb := &ps[a], &ps[b]
		if pa.Left != pb.Left {
			return pa.Left < pb.Left
		}
		if pa.Right != pb.Right {
			return pa.Right < pb.Right
		}
		if sa, sb := math.Float64bits(pa.Selectivity), math.Float64bits(pb.Selectivity); sa != sb {
			return sa < sb
		}
		if la, lb := math.Float64bits(pa.LeftDistinct), math.Float64bits(pb.LeftDistinct); la != lb {
			return la < lb
		}
		return math.Float64bits(pa.RightDistinct) < math.Float64bits(pb.RightDistinct)
	})
}

// relabelCorpus generates workload.Default() queries and every
// workload.Shapes topology at N 2–60, each also in a denormalized form
// (see denormalize).
func relabelCorpus(t *testing.T) []*catalog.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	spec := workload.Default()
	var qs []*catalog.Query
	for n := 2; n <= 60; n++ {
		qs = append(qs, spec.Generate(n, rng))
		for _, shape := range workload.Shapes {
			q, err := spec.GenerateShape(shape, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
	}
	for i, m := 0, len(qs); i < m; i++ {
		qs = append(qs, denormalize(qs[i], rng))
	}
	return qs
}

// denormalize returns a copy of q with the inputs a client may send
// and the generators never produce: flipped endpoints (Left > Right),
// zero selectivities that Normalize derives from the distinct counts,
// parallel predicates, histograms on one or both sides, empty non-nil
// selection lists and relations with three selections.
func denormalize(q *catalog.Query, rng *rand.Rand) *catalog.Query {
	out := snapshot(q)
	for i := range out.Relations {
		switch rng.Intn(6) {
		case 0:
			out.Relations[i].Selections = []catalog.Selection{}
		case 1:
			out.Relations[i].Selections = []catalog.Selection{{Selectivity: 0.5}, {Selectivity: 0.1}, {Selectivity: 0.34}}
		}
	}
	hist := func() *catalog.Histogram {
		return &catalog.Histogram{Domain: 64, Counts: []float64{float64(1 + rng.Intn(50)), 0, float64(rng.Intn(900)), 7}}
	}
	for i := range out.Predicates {
		p := &out.Predicates[i]
		switch rng.Intn(5) {
		case 0:
			p.LeftHist, p.RightHist = hist(), hist()
		case 1:
			p.LeftHist = hist()
		}
		if rng.Intn(4) == 0 {
			p.Selectivity = 0
		}
		if rng.Intn(6) == 0 {
			par := *p
			par.Selectivity = 0.5
			out.Predicates = append(out.Predicates, par)
		}
	}
	for i := range out.Predicates {
		if p := &out.Predicates[i]; rng.Intn(3) == 0 {
			p.Left, p.Right = p.Right, p.Left
			p.LeftDistinct, p.RightDistinct = p.RightDistinct, p.LeftDistinct
			p.LeftHist, p.RightHist = p.RightHist, p.LeftHist
		}
	}
	return out
}

// snapshot deep-copies q, histograms included, keeping nil and empty
// selection lists apart.
func snapshot(q *catalog.Query) *catalog.Query {
	out := &catalog.Query{
		Relations:  slices.Clone(q.Relations),
		Predicates: slices.Clone(q.Predicates),
	}
	for i := range out.Relations {
		out.Relations[i].Selections = slices.Clone(q.Relations[i].Selections)
	}
	cloneHist := func(h *catalog.Histogram) *catalog.Histogram {
		if h == nil {
			return nil
		}
		return &catalog.Histogram{Domain: h.Domain, Counts: slices.Clone(h.Counts)}
	}
	for i := range out.Predicates {
		p := &out.Predicates[i]
		p.LeftHist, p.RightHist = cloneHist(p.LeftHist), cloneHist(p.RightHist)
	}
	return out
}

// TestDifferentialRelabel: the one-pass Relabel equals the clone-based
// oracle field for field, under the canonical order and under a random
// permutation, leaves q unchanged, and shares no slice with q — the
// serving layer hands its result to greedy, to a synchronous search and
// to a background upgrade without copying it again.
func TestDifferentialRelabel(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for qi, q := range relabelCorpus(t) {
		_, canon := Canonical(q)
		random := make([]catalog.RelID, len(q.Relations))
		for i, v := range rng.Perm(len(q.Relations)) {
			random[i] = catalog.RelID(v)
		}
		for _, order := range [][]catalog.RelID{canon, random} {
			before := snapshot(q)
			got := Relabel(q, order)
			if want := oracleRelabel(q, order); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d (%d relations): Relabel differs from the oracle:\n got %+v\nwant %+v",
					qi, len(q.Relations), got, want)
			}
			if !reflect.DeepEqual(q, before) {
				t.Fatalf("query %d: Relabel mutated its input", qi)
			}
			// Scribble over every lane of the output, then grow each
			// selection list in place: neither q nor a neighbouring
			// relation of the output may see the appended element.
			for i := range got.Relations {
				r := &got.Relations[i]
				r.Cardinality = -1
				for j := range r.Selections {
					r.Selections[j].Selectivity = -1
				}
			}
			for i := range got.Relations {
				r := &got.Relations[i]
				r.Selections = append(r.Selections, catalog.Selection{Selectivity: -2})
			}
			for i, r := range got.Relations {
				for _, s := range r.Selections[:len(r.Selections)-1] {
					if s.Selectivity != -1 {
						t.Fatalf("query %d: growing a relation's selections overwrote relation %d's", qi, i)
					}
				}
			}
			for i := range got.Predicates {
				got.Predicates[i] = catalog.Predicate{Left: -1, Right: -1}
			}
			if !reflect.DeepEqual(q, before) {
				t.Fatalf("query %d: the output shares a slice with the input", qi)
			}
		}
	}
}
