package joingraph

import (
	"math"
	"sort"

	"joinopt/internal/catalog"
)

// oracleGraph is the join-graph builder New replaced, kept as the
// differential oracle: parallel predicates merged through a map keyed
// on the normalized endpoints, one incidence list per vertex, and a
// CSR laid out from those lists. TestDifferentialJoinGraph checks that
// New and every query method agree with it.
type oracleGraph struct {
	n     int
	edges []Edge
	// adj[v] lists indices into edges for every edge incident to v.
	adj [][]int
	csr *CSR
}

func newOracle(q *catalog.Query) *oracleGraph {
	g := &oracleGraph{n: q.NumRelations()}
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
	g.adj = make([][]int, g.n)
	for ei, e := range g.edges {
		g.adj[e.From] = append(g.adj[e.From], ei)
		g.adj[e.To] = append(g.adj[e.To], ei)
	}
	g.buildCSR()
	return g
}

func (g *oracleGraph) buildCSR() {
	n := g.n
	words := (n + 63) >> 6
	c := &CSR{
		words:   words,
		Off:     make([]int32, n+1),
		Nbr:     make([]int32, 2*len(g.edges)),
		EdgeIdx: make([]int32, 2*len(g.edges)),
		masks:   make([]uint64, n*words),
	}
	for _, e := range g.edges {
		c.Off[e.From+1]++
		c.Off[e.To+1]++
	}
	for v := 0; v < n; v++ {
		c.Off[v+1] += c.Off[v]
	}
	cur := make([]int32, n)
	copy(cur, c.Off[:n])
	put := func(v, other catalog.RelID, ei int) {
		c.Nbr[cur[v]] = int32(other)
		c.EdgeIdx[cur[v]] = int32(ei)
		cur[v]++
		c.masks[int(v)*words+int(other)>>6] |= 1 << uint(other&63)
	}
	for ei, e := range g.edges {
		put(e.From, e.To, ei)
		put(e.To, e.From, ei)
	}
	g.csr = c
}

func (g *oracleGraph) Degree(v catalog.RelID) int { return len(g.adj[v]) }

func (g *oracleGraph) Neighbors(v catalog.RelID, dst []catalog.RelID) []catalog.RelID {
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

func (g *oracleGraph) EdgeBetween(u, v catalog.RelID) (Edge, bool) {
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

func (g *oracleGraph) Components() [][]catalog.RelID {
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

func (g *oracleGraph) MinimumSpanningTree(root catalog.RelID, weight WeightFunc) *Tree {
	t := newTree(g.n, root)
	inTree := make([]bool, g.n)
	inTree[root] = true
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
