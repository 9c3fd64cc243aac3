package joingraph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"joinopt/internal/catalog"
)

// chainQuery builds a chain R0–R1–…–R(n-1).
func chainQuery(n int) *catalog.Query {
	q := &catalog.Query{}
	for i := 0; i < n; i++ {
		q.Relations = append(q.Relations, catalog.Relation{Cardinality: 100})
	}
	for i := 0; i+1 < n; i++ {
		q.Predicates = append(q.Predicates, catalog.Predicate{
			Left: catalog.RelID(i), Right: catalog.RelID(i + 1),
			LeftDistinct: 10, RightDistinct: 10,
		})
	}
	return q
}

func TestNewMergesParallelPredicates(t *testing.T) {
	q := &catalog.Query{
		Relations: []catalog.Relation{{Cardinality: 10}, {Cardinality: 20}},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, Selectivity: 0.5},
			{Left: 1, Right: 0, Selectivity: 0.1},
		},
	}
	g := New(q)
	if len(g.Edges()) != 1 {
		t.Fatalf("parallel predicates not merged: %d edges", len(g.Edges()))
	}
	e, ok := g.EdgeBetween(0, 1)
	if !ok {
		t.Fatal("merged edge missing")
	}
	if e.Selectivity != 0.05 {
		t.Fatalf("merged selectivity: got %g, want 0.05", e.Selectivity)
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := New(chainQuery(4))
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(3) != 1 {
		t.Fatalf("degrees wrong: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(3))
	}
	n := g.Neighbors(1, nil)
	sort.Slice(n, func(i, j int) bool { return n[i] < n[j] })
	if len(n) != 2 || n[0] != 0 || n[1] != 2 {
		t.Fatalf("neighbors of 1: %v", n)
	}
}

func TestConnectedAndEdgeBetween(t *testing.T) {
	g := New(chainQuery(4))
	if !g.Connected(1, 2) || g.Connected(0, 3) {
		t.Fatal("connectivity wrong")
	}
	if _, ok := g.EdgeBetween(0, 2); ok {
		t.Fatal("phantom edge 0-2")
	}
}

func TestComponents(t *testing.T) {
	q := chainQuery(6)
	// Break the chain between 2 and 3.
	q.Predicates = append(q.Predicates[:2], q.Predicates[3:]...)
	g := New(q)
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	want := [][]catalog.RelID{{0, 1, 2}, {3, 4, 5}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d: %v", i, comps[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d: %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

func TestJoinsInto(t *testing.T) {
	g := New(chainQuery(4))
	inSet := makeBitset(4, 0)
	if !g.JoinsInto(1, inSet) || g.JoinsInto(2, inSet) {
		t.Fatal("JoinsInto wrong")
	}
}

// cycleQuery builds a 4-cycle with one expensive and three cheap edges.
func cycleQuery() *catalog.Query {
	q := &catalog.Query{}
	for i := 0; i < 4; i++ {
		q.Relations = append(q.Relations, catalog.Relation{Cardinality: 100})
	}
	sel := []float64{0.01, 0.02, 0.03, 0.9} // edge 3-0 is worst
	pairs := [][2]catalog.RelID{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	for i, p := range pairs {
		q.Predicates = append(q.Predicates, catalog.Predicate{
			Left: p[0], Right: p[1], Selectivity: sel[i],
		})
	}
	return q
}

func TestMinimumSpanningTreeDropsWorstEdge(t *testing.T) {
	g := New(cycleQuery())
	tree := g.MinimumSpanningTree(0, SelectivityWeight)
	if len(tree.Vertices) != 4 {
		t.Fatalf("MST spans %d vertices, want 4", len(tree.Vertices))
	}
	// The 0.9 edge (3-0) must be absent: 3's parent chain must reach 0
	// through 2 and 1.
	if tree.Parent[3] == 0 {
		t.Fatal("MST kept the most selective... the worst edge 3-0")
	}
	// Every non-root vertex has a parent edge with weight < 0.9.
	for _, v := range tree.Vertices {
		if tree.IsRoot(v) {
			continue
		}
		if tree.ParentEdge[v].Selectivity >= 0.9 {
			t.Fatalf("vertex %d uses the worst edge", v)
		}
	}
}

// treeEdges collects the undirected (min,max) edge set of a tree.
func treeEdges(tr *Tree) map[[2]catalog.RelID]bool {
	out := make(map[[2]catalog.RelID]bool)
	for _, v := range tr.Vertices {
		if tr.IsRoot(v) {
			continue
		}
		a, b := v, tr.Parent[v]
		if a > b {
			a, b = b, a
		}
		out[[2]catalog.RelID{a, b}] = true
	}
	return out
}

func TestRerootPreservesEdges(t *testing.T) {
	g := New(cycleQuery())
	tree := g.MinimumSpanningTree(0, SelectivityWeight)
	before := treeEdges(tree)
	for v := catalog.RelID(0); v < 4; v++ {
		rt := tree.Reroot(v)
		if !rt.IsRoot(v) {
			t.Fatalf("reroot at %d: root not set", v)
		}
		after := treeEdges(rt)
		if len(after) != len(before) {
			t.Fatalf("reroot at %d changed edge count: %d vs %d", v, len(after), len(before))
		}
		for e := range before {
			if !after[e] {
				t.Fatalf("reroot at %d lost edge %v", v, e)
			}
		}
	}
}

func TestRerootOutsideTreePanics(t *testing.T) {
	q := chainQuery(6)
	q.Predicates = q.Predicates[:2] // relations 3..5 disconnected
	g := New(q)
	tree := g.MinimumSpanningTree(0, SelectivityWeight)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic rerooting outside tree")
		}
	}()
	tree.Reroot(5)
}

// randomConnectedQuery builds a random connected query for property tests.
func randomConnectedQuery(rng *rand.Rand, n int) *catalog.Query {
	q := &catalog.Query{}
	for i := 0; i < n; i++ {
		q.Relations = append(q.Relations, catalog.Relation{Cardinality: int64(1 + rng.Intn(1000))})
	}
	for i := 1; i < n; i++ {
		q.Predicates = append(q.Predicates, catalog.Predicate{
			Left: catalog.RelID(rng.Intn(i)), Right: catalog.RelID(i),
			LeftDistinct:  float64(1 + rng.Intn(100)),
			RightDistinct: float64(1 + rng.Intn(100)),
		})
	}
	// Extra edges.
	for k := 0; k < n/2; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			q.Predicates = append(q.Predicates, catalog.Predicate{
				Left: catalog.RelID(a), Right: catalog.RelID(b),
				LeftDistinct: 5, RightDistinct: 5,
			})
		}
	}
	q.Normalize()
	return q
}

func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := 2 + int(size%30)
		rng := rand.New(rand.NewSource(seed))
		g := New(randomConnectedQuery(rng, n))
		comps := g.Components()
		seen := make(map[catalog.RelID]int)
		for _, c := range comps {
			for _, v := range c {
				seen[v]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTSpansProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := 2 + int(size%30)
		rng := rand.New(rand.NewSource(seed))
		g := New(randomConnectedQuery(rng, n))
		tree := g.MinimumSpanningTree(0, SelectivityWeight)
		if len(tree.Vertices) != n {
			return false
		}
		// n-1 parent edges.
		edges := 0
		for _, v := range tree.Vertices {
			if !tree.IsRoot(v) {
				edges++
			}
		}
		return edges == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// makeBitset builds a Bitset of capacity n with the given members set.
func makeBitset(n int, members ...int) Bitset {
	b := NewBitset(n)
	for _, m := range members {
		b.Set(catalog.RelID(m))
	}
	return b
}
