// Package joingraph provides the join-graph abstraction used throughout
// the optimizer: adjacency between relations induced by join predicates,
// connected components, spanning trees, and rooted-tree views.
//
// A query's join graph has one vertex per relation and one edge per join
// predicate (parallel predicates between the same pair are merged into a
// single edge whose selectivity is the product of the predicates').
package joingraph

import (
	"fmt"
	"math"
	"slices"

	"joinopt/internal/catalog"
)

// Edge is an undirected edge of the join graph. From < To always holds.
type Edge struct {
	From, To catalog.RelID
	// Selectivity is the combined join selectivity of all predicates
	// between From and To.
	Selectivity float64
	// FromDistinct and ToDistinct carry the distinct-value counts of
	// the join columns on each endpoint (of the first predicate merged
	// into this edge; subsequent parallel predicates only multiply into
	// Selectivity).
	FromDistinct, ToDistinct float64
	// FromHist and ToHist carry the optional join-column histograms of
	// the first predicate merged into this edge.
	FromHist, ToHist *catalog.Histogram
}

// Graph is an immutable join graph over n relations.
type Graph struct {
	n     int
	edges []Edge
	// csr is the flat bitset adjacency view (see bitset.go), built once
	// at construction: the one adjacency every consumer walks.
	csr CSR
}

// New builds a join graph from a query's predicates. Parallel predicates
// are merged; selectivities multiply. A predicate repeats an earlier
// pair when the pair's bit is already set in the neighbor masks; the
// repeats are multiplied in once the CSR can find their edge.
func New(q *catalog.Query) *Graph {
	n := q.NumRelations()
	g := &Graph{n: n, edges: make([]Edge, 0, len(q.Predicates))}
	c := &g.csr
	c.words = (n + 63) >> 6
	c.masks = make([]uint64, n*c.words)
	for _, p := range q.Predicates {
		p.Normalize()
		if c.neighborMask(p.Left).Test(p.Right) {
			continue
		}
		c.neighborMask(p.Left).Set(p.Right)
		c.neighborMask(p.Right).Set(p.Left)
		g.edges = append(g.edges, Edge{
			From:         p.Left,
			To:           p.Right,
			Selectivity:  p.Selectivity,
			FromDistinct: p.LeftDistinct,
			ToDistinct:   p.RightDistinct,
			FromHist:     p.LeftHist,
			ToHist:       p.RightHist,
		})
	}
	g.buildCSR()
	if len(g.edges) < len(q.Predicates) {
		g.mergeParallel(q)
	}
	return g
}

// mergeParallel multiplies every repeated predicate into its pair's
// edge, in predicate order. Edges are numbered in the order their first
// predicate appears, so a predicate whose edge is the next unclaimed
// number is that first predicate, and any other is a repeat.
func (g *Graph) mergeParallel(q *catalog.Query) {
	firsts := 0
	for _, p := range q.Predicates {
		p.Normalize()
		ei := g.edgeIndex(p.Left, p.Right)
		if ei == firsts {
			firsts++
			continue
		}
		g.edges[ei].Selectivity *= p.Selectivity
	}
}

// NumVertices returns the number of relations.
func (g *Graph) NumVertices() int { return g.n }

// Edges returns the merged edge list. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Degree returns the number of relations that relation v joins with.
func (g *Graph) Degree(v catalog.RelID) int { return int(g.csr.Off[v+1] - g.csr.Off[v]) }

// Neighbors appends the neighbors of v to dst and returns it.
func (g *Graph) Neighbors(v catalog.RelID, dst []catalog.RelID) []catalog.RelID {
	for _, w := range g.csr.Nbr[g.csr.Off[v]:g.csr.Off[v+1]] {
		dst = append(dst, catalog.RelID(w))
	}
	return dst
}

// EdgeBetween returns the merged edge between u and v, if any.
func (g *Graph) EdgeBetween(u, v catalog.RelID) (Edge, bool) {
	if ei := g.edgeIndex(u, v); ei >= 0 {
		return g.edges[ei], true
	}
	return Edge{}, false
}

// edgeIndex returns the index of the edge between u and v, or -1,
// scanning the shorter incidence list.
func (g *Graph) edgeIndex(u, v catalog.RelID) int {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	c := &g.csr
	for k := c.Off[u]; k < c.Off[u+1]; k++ {
		if catalog.RelID(c.Nbr[k]) == v {
			return int(c.EdgeIdx[k])
		}
	}
	return -1
}

// Connected reports whether u and v share an edge.
func (g *Graph) Connected(u, v catalog.RelID) bool {
	_, ok := g.EdgeBetween(u, v)
	return ok
}

// JoinsInto reports whether v joins with at least one relation in set:
// a word-AND over v's precomputed neighbor mask, independent of degree.
//
//ljqlint:hotpath
func (g *Graph) JoinsInto(v catalog.RelID, set Bitset) bool {
	return g.csr.JoinsInto(v, set)
}

// Components returns the connected components of the graph, each as a
// sorted slice of relation IDs. Components are ordered by their smallest
// member. All of them are cut from one array, each capped at its own
// length, so appending to one cannot overwrite the next.
func (g *Graph) Components() [][]catalog.RelID {
	seen := NewBitset(g.n)
	all := make([]catalog.RelID, 0, g.n)
	var comps [][]catalog.RelID
	for start := catalog.RelID(0); int(start) < g.n; start++ {
		if seen.Test(start) {
			continue
		}
		// all[lo:] is the breadth-first queue and, once it drains, the
		// component.
		lo := len(all)
		seen.Set(start)
		all = append(all, start)
		for head := lo; head < len(all); head++ {
			v := all[head]
			for _, w := range g.csr.Nbr[g.csr.Off[v]:g.csr.Off[v+1]] {
				if !seen.Test(catalog.RelID(w)) {
					seen.Set(catalog.RelID(w))
					all = append(all, catalog.RelID(w))
				}
			}
		}
		comp := all[lo:len(all):len(all)]
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Tree is a rooted spanning tree of (a component of) a join graph.
// Parent[root] == -1; vertices not in the tree have Parent == -2.
type Tree struct {
	Root catalog.RelID
	// Parent maps each vertex to its parent (indexed by RelID over the
	// whole graph's vertex range).
	Parent []catalog.RelID
	// Children lists each vertex's children.
	Children [][]catalog.RelID
	// ParentEdge[v] is the graph edge connecting v to Parent[v]
	// (undefined for the root and for absent vertices).
	ParentEdge []Edge
	// Vertices lists the tree's vertices in the order they were
	// attached, root first.
	Vertices []catalog.RelID
}

const (
	parentRoot   = catalog.RelID(-1)
	parentAbsent = catalog.RelID(-2)
)

// InTree reports whether v belongs to the tree.
func (t *Tree) InTree(v catalog.RelID) bool { return t.Parent[v] != parentAbsent }

// IsRoot reports whether v is the tree's root.
func (t *Tree) IsRoot(v catalog.RelID) bool { return t.Parent[v] == parentRoot }

// WeightFunc assigns a weight to an edge for spanning-tree selection.
type WeightFunc func(Edge) float64

// SelectivityWeight weighs an edge by its join selectivity — the weight
// recommended by Krishnamurthy, Boral & Zaniolo and confirmed best by the
// paper's Table 2 (criterion 3).
func SelectivityWeight(e Edge) float64 { return e.Selectivity }

// MinimumSpanningTree computes a minimum spanning tree (Prim's algorithm)
// of the component containing root, using the supplied edge weights, and
// returns it rooted at root.
func (g *Graph) MinimumSpanningTree(root catalog.RelID, weight WeightFunc) *Tree {
	t := newTree(g.n, root)
	inTree := make([]bool, g.n)
	inTree[root] = true

	// best[v] is the cheapest edge connecting v to the tree so far.
	type cand struct {
		edge   Edge
		parent catalog.RelID
		w      float64
		ok     bool
	}
	best := make([]cand, g.n)
	relax := func(v catalog.RelID) {
		for k := g.csr.Off[v]; k < g.csr.Off[v+1]; k++ {
			other := catalog.RelID(g.csr.Nbr[k])
			if inTree[other] {
				continue
			}
			e := g.edges[g.csr.EdgeIdx[k]]
			w := weight(e)
			if !best[other].ok || w < best[other].w {
				best[other] = cand{edge: e, parent: v, w: w, ok: true}
			}
		}
	}
	relax(root)
	for {
		// Pick the cheapest frontier vertex (O(V) scan; V ≤ 101 here).
		next := catalog.RelID(-1)
		bw := math.Inf(1)
		for v := 0; v < g.n; v++ {
			if !inTree[v] && best[v].ok && best[v].w < bw {
				bw = best[v].w
				next = catalog.RelID(v)
			}
		}
		if next < 0 {
			break
		}
		c := best[next]
		inTree[next] = true
		t.attach(next, c.parent, c.edge)
		relax(next)
	}
	return t
}

func newTree(n int, root catalog.RelID) *Tree {
	t := &Tree{
		Root:       root,
		Parent:     make([]catalog.RelID, n),
		Children:   make([][]catalog.RelID, n),
		ParentEdge: make([]Edge, n),
	}
	for i := range t.Parent {
		t.Parent[i] = parentAbsent
	}
	t.Parent[root] = parentRoot
	t.Vertices = append(t.Vertices, root)
	return t
}

// attach adds v to the tree under parent via edge e.
func (t *Tree) attach(v, parent catalog.RelID, e Edge) {
	t.Parent[v] = parent
	t.Children[parent] = append(t.Children[parent], v)
	t.ParentEdge[v] = e
	// newTree seeds Vertices with the root; avoid double-adding it.
	if v != t.Root {
		t.Vertices = append(t.Vertices, v)
	}
}

// Reroot returns the same undirected tree re-rooted at newRoot. The
// vertex set is unchanged.
func (t *Tree) Reroot(newRoot catalog.RelID) *Tree {
	if !t.InTree(newRoot) {
		panic(fmt.Sprintf("joingraph: reroot at vertex %d outside tree", newRoot))
	}
	n := len(t.Parent)
	// Collect undirected adjacency of the tree.
	type link struct {
		to   catalog.RelID
		edge Edge
	}
	adj := make([][]link, n)
	for _, v := range t.Vertices {
		if t.IsRoot(v) {
			continue
		}
		p := t.Parent[v]
		e := t.ParentEdge[v]
		adj[v] = append(adj[v], link{p, e})
		adj[p] = append(adj[p], link{v, e})
	}
	nt := newTree(n, newRoot)
	seen := make([]bool, n)
	seen[newRoot] = true
	queue := []catalog.RelID{newRoot}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, l := range adj[v] {
			if seen[l.to] {
				continue
			}
			seen[l.to] = true
			nt.attach(l.to, v, l.edge)
			queue = append(queue, l.to)
		}
	}
	return nt
}
