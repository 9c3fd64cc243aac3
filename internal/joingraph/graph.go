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
	"sort"

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
	// adj[v] lists indices into edges for every edge incident to v.
	adj [][]int
	// csr is the flat bitset adjacency view (see bitset.go), built once
	// at construction and shared by every frontier-scanning consumer.
	csr *CSR
}

// New builds a join graph from a query's predicates. Parallel predicates
// are merged; selectivities multiply.
func New(q *catalog.Query) *Graph {
	g := &Graph{n: q.NumRelations()}
	index := make(map[[2]catalog.RelID]int)
	for _, p := range q.Predicates {
		p.Normalize()
		key := [2]catalog.RelID{p.Left, p.Right}
		if ei, ok := index[key]; ok {
			g.edges[ei].Selectivity *= p.Selectivity
			continue
		}
		index[key] = len(g.edges)
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
	g.buildAdjacency()
	g.buildCSR()
	return g
}

func (g *Graph) buildAdjacency() {
	g.adj = make([][]int, g.n)
	for ei, e := range g.edges {
		g.adj[e.From] = append(g.adj[e.From], ei)
		g.adj[e.To] = append(g.adj[e.To], ei)
	}
}

// NumVertices returns the number of relations.
func (g *Graph) NumVertices() int { return g.n }

// Edges returns the merged edge list. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Degree returns the number of relations that relation v joins with.
func (g *Graph) Degree(v catalog.RelID) int { return len(g.adj[v]) }

// Neighbors appends the neighbors of v to dst and returns it.
func (g *Graph) Neighbors(v catalog.RelID, dst []catalog.RelID) []catalog.RelID {
	for _, ei := range g.adj[v] {
		e := g.edges[ei]
		if e.From == v {
			dst = append(dst, e.To)
		} else {
			dst = append(dst, e.From)
		}
	}
	return dst
}

// EdgeBetween returns the merged edge between u and v, if any.
func (g *Graph) EdgeBetween(u, v catalog.RelID) (Edge, bool) {
	// Scan the shorter adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, ei := range g.adj[u] {
		e := g.edges[ei]
		if (e.From == u && e.To == v) || (e.From == v && e.To == u) {
			return e, true
		}
	}
	return Edge{}, false
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
// member.
func (g *Graph) Components() [][]catalog.RelID {
	seen := make([]bool, g.n)
	var comps [][]catalog.RelID
	queue := make([]catalog.RelID, 0, g.n)
	var nbuf []catalog.RelID
	for start := 0; start < g.n; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		queue = queue[:0]
		queue = append(queue, catalog.RelID(start))
		comp := []catalog.RelID{catalog.RelID(start)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			nbuf = g.Neighbors(v, nbuf[:0])
			for _, w := range nbuf {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
					comp = append(comp, w)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
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
		for _, ei := range g.adj[v] {
			e := g.edges[ei]
			other := e.From
			if other == v {
				other = e.To
			}
			if inTree[other] {
				continue
			}
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
