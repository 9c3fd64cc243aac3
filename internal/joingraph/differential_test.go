package joingraph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/workload"
)

// TestDifferentialJoinGraph builds every query twice, with New and with
// the map-and-lists oracle it replaced, and checks that the edges, the
// CSR lanes and masks, and every query method agree exactly. The
// queries are workload.Default() and every workload.Shapes topology at
// 2–60 relations, each with three twins: endpoints flipped, parallel
// predicates added, and several components side by side.
func TestDifferentialJoinGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	spec := workload.Default()
	graphs := 0
	for n := 2; n <= 60; n++ {
		bases := []*catalog.Query{spec.Generate(n-1, rng)}
		for _, shape := range workload.Shapes {
			q, err := spec.GenerateShape(shape, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, q)
		}
		for i, q := range bases {
			for _, c := range []struct {
				name string
				q    *catalog.Query
			}{
				{"base", q},
				{"flipped", flipped(q, rng)},
				{"parallel", withParallel(q, rng)},
				{"components", sideBySide(q, withParallel(bases[(i+1)%len(bases)], rng), flipped(q, rng))},
			} {
				compareWithOracle(t, fmt.Sprintf("n=%d query %d %s", n, i, c.name), c.q)
				graphs++
			}
		}
	}
	t.Logf("%d graphs agree with the oracle", graphs)
}

func compareWithOracle(t *testing.T, name string, q *catalog.Query) {
	t.Helper()
	g, o := New(q), newOracle(q)
	if !sameEdges(g.Edges(), o.edges) {
		t.Fatalf("%s: Edges\n got %v\nwant %v", name, g.Edges(), o.edges)
	}
	c, oc := g.CSR(), o.csr
	if c.words != oc.words || !slices.Equal(c.Off, oc.Off) || !slices.Equal(c.Nbr, oc.Nbr) ||
		!slices.Equal(c.EdgeIdx, oc.EdgeIdx) || !slices.Equal(c.masks, oc.masks) {
		t.Fatalf("%s: CSR\n got %+v\nwant %+v", name, *c, *oc)
	}
	var nb, onb []catalog.RelID
	for v := catalog.RelID(0); int(v) < o.n; v++ {
		if g.Degree(v) != o.Degree(v) {
			t.Fatalf("%s: Degree(%d) = %d, want %d", name, v, g.Degree(v), o.Degree(v))
		}
		nb, onb = g.Neighbors(v, nb[:0]), o.Neighbors(v, onb[:0])
		if !slices.Equal(nb, onb) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", name, v, nb, onb)
		}
		for u := catalog.RelID(0); int(u) < o.n; u++ {
			e, ok := g.EdgeBetween(u, v)
			oe, ook := o.EdgeBetween(u, v)
			if ok != ook || !sameEdges([]Edge{e}, []Edge{oe}) {
				t.Fatalf("%s: EdgeBetween(%d, %d) = %v %v, want %v %v", name, u, v, e, ok, oe, ook)
			}
		}
		if v%8 != 0 && int(v) != o.n-1 {
			continue // a spanning tree from every eighth root and the last
		}
		if tr, otr := g.MinimumSpanningTree(v, SelectivityWeight), o.MinimumSpanningTree(v, SelectivityWeight); !reflect.DeepEqual(tr, otr) {
			t.Fatalf("%s: MinimumSpanningTree(%d)\n got %+v\nwant %+v", name, v, tr, otr)
		}
	}
	comps, ocomps := g.Components(), o.Components()
	if !reflect.DeepEqual(comps, ocomps) {
		t.Fatalf("%s: Components = %v, want %v", name, comps, ocomps)
	}
	for _, comp := range comps {
		if cap(comp) != len(comp) {
			t.Fatalf("%s: component %v has capacity %d, so an append would overwrite the next", name, comp, cap(comp))
		}
	}
}

// sameEdges compares edge lists field by field, floats by their bits.
func sameEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.From != y.From || x.To != y.To || bits(x.Selectivity) != bits(y.Selectivity) ||
			bits(x.FromDistinct) != bits(y.FromDistinct) || bits(x.ToDistinct) != bits(y.ToDistinct) ||
			x.FromHist != y.FromHist || x.ToHist != y.ToHist {
			return false
		}
	}
	return true
}

// flipped returns q with about half its predicates written with their
// endpoints (and each endpoint's statistics) swapped, and a histogram
// on some of them, so New's normalization has work to do.
func flipped(q *catalog.Query, rng *rand.Rand) *catalog.Query {
	out := &catalog.Query{Relations: q.Relations, Predicates: slices.Clone(q.Predicates)}
	for i := range out.Predicates {
		p := &out.Predicates[i]
		if rng.Intn(4) == 0 {
			p.LeftHist = &catalog.Histogram{Counts: []float64{1, 2}}
		}
		if rng.Intn(2) == 0 {
			p.Left, p.Right = p.Right, p.Left
			p.LeftDistinct, p.RightDistinct = p.RightDistinct, p.LeftDistinct
			p.LeftHist, p.RightHist = p.RightHist, p.LeftHist
		}
	}
	return out
}

// withParallel returns q with repeats of some of its predicates
// inserted at random later positions, either way round, each with a
// selectivity of its own or none (derived by Normalize).
func withParallel(q *catalog.Query, rng *rand.Rand) *catalog.Query {
	out := &catalog.Query{Relations: q.Relations, Predicates: slices.Clone(q.Predicates)}
	for k := 0; k < 1+len(q.Predicates)/3; k++ {
		i := rng.Intn(len(out.Predicates))
		p := out.Predicates[i]
		p.Selectivity = []float64{0, 0.5, 0.1, 1e-3}[rng.Intn(4)]
		p.LeftDistinct, p.RightDistinct = 1+float64(rng.Intn(100)), 1+float64(rng.Intn(100))
		if rng.Intn(2) == 0 {
			p.Left, p.Right = p.Right, p.Left
		}
		out.Predicates = slices.Insert(out.Predicates, i+1+rng.Intn(len(out.Predicates)-i), p)
	}
	return out
}

// sideBySide returns one query holding qs over disjoint relation
// ranges, so its graph has a component (or more) per part.
func sideBySide(qs ...*catalog.Query) *catalog.Query {
	out := &catalog.Query{}
	for _, q := range qs {
		off := catalog.RelID(len(out.Relations))
		out.Relations = append(out.Relations, q.Relations...)
		for _, p := range q.Predicates {
			p.Left += off
			p.Right += off
			out.Predicates = append(out.Predicates, p)
		}
	}
	return out
}
