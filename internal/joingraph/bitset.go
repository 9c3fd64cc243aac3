// Bitset and CSR: the packed adjacency view of a join graph.
//
// Every frontier scan in the optimizer — "does relation v join the set
// of relations already placed?" — used to walk a []bool membership
// slice per candidate. The Bitset packs membership 64 relations per
// word, and the CSR view precomputes each vertex's neighbor mask, so a
// frontier test collapses to a handful of word ANDs regardless of
// degree. The CSR arrays additionally lay the merged adjacency flat
// (offsets + neighbor ids + edge indices), the cache-friendly layout
// the estimator's selectivity walk scans.
//
// The view is built once per query inside New and shared by everything
// that consumes the graph: fingerprint canonicalization, the greedy
// planner, the move-based search strategies' validity scans, and the
// estimator's prefix frontier and selectivity walk.
package joingraph

import (
	"math/bits"

	"joinopt/internal/catalog"
)

// Bitset is a fixed-capacity set of relation IDs, packed 64 per word.
// Allocate with NewBitset; the zero value is an empty set of capacity 0.
type Bitset []uint64

// NewBitset returns an empty set able to hold relations [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)>>6) }

// Reset clears the set in place.
//
//ljqlint:hotpath
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Set adds relation id to the set.
//
//ljqlint:hotpath
func (b Bitset) Set(id catalog.RelID) { b[id>>6] |= 1 << uint(id&63) }

// Clear removes relation id from the set.
//
//ljqlint:hotpath
func (b Bitset) Clear(id catalog.RelID) { b[id>>6] &^= 1 << uint(id&63) }

// Test reports whether relation id is in the set.
//
//ljqlint:hotpath
func (b Bitset) Test(id catalog.RelID) bool { return b[id>>6]&(1<<uint(id&63)) != 0 }

// Count returns the number of members.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// CopyFrom overwrites b with o's members. Same-capacity sets only.
//
//ljqlint:hotpath
func (b Bitset) CopyFrom(o Bitset) { copy(b, o) }

// CSR is the flat adjacency view of a Graph: the incidences of vertex v
// live at Nbr/EdgeIdx[Off[v]:Off[v+1]], and neighborMask(v) is v's
// neighbor set as a Bitset. Built once per query by New; immutable.
type CSR struct {
	words int
	// Off has one entry per vertex plus a terminator.
	Off []int32
	// Nbr lists neighbor vertex ids, grouped by vertex, in merged-edge
	// index order within each group (the order Graph.Neighbors visits),
	// so products accumulated over an incidence walk are order-stable.
	Nbr []int32
	// EdgeIdx holds the index into Graph.Edges() of each incidence.
	EdgeIdx []int32
	// masks packs each vertex's neighbor Bitset, words words per vertex.
	masks []uint64
}

// neighborMask returns v's neighbor set. Callers must not modify it.
//
//ljqlint:hotpath
func (c *CSR) neighborMask(v catalog.RelID) Bitset {
	return Bitset(c.masks[int(v)*c.words : (int(v)+1)*c.words])
}

// JoinsInto reports whether v has at least one edge into set: a word-AND
// over v's neighbor mask, independent of v's degree.
//
//ljqlint:hotpath
func (c *CSR) JoinsInto(v catalog.RelID, set Bitset) bool {
	off := int(v) * c.words
	for i := 0; i < c.words; i++ {
		if c.masks[off+i]&set[i] != 0 {
			return true
		}
	}
	return false
}

// buildCSR lays the merged adjacency flat; New has already set the
// neighbor masks. Off, Nbr and EdgeIdx share one allocation, and each
// vertex's incidences follow edge index order.
func (g *Graph) buildCSR() {
	n, m := g.n, len(g.edges)
	c := &g.csr
	lanes := make([]int32, n+1+4*m)
	c.Off = lanes[: n+1 : n+1]
	c.Nbr = lanes[n+1 : n+1+2*m : n+1+2*m]
	c.EdgeIdx = lanes[n+1+2*m:]
	for _, e := range g.edges {
		c.Off[e.From+1]++
		c.Off[e.To+1]++
	}
	for v := 0; v < n; v++ {
		c.Off[v+1] += c.Off[v]
	}
	// Fill each vertex's run with Off[v] as its cursor, which leaves
	// Off[v] at the run's end; shifting Off up one slot restores the
	// starts.
	put := func(v, other catalog.RelID, ei int) {
		c.Nbr[c.Off[v]] = int32(other)
		c.EdgeIdx[c.Off[v]] = int32(ei)
		c.Off[v]++
	}
	for ei, e := range g.edges {
		put(e.From, e.To, ei)
		put(e.To, e.From, ei)
	}
	copy(c.Off[1:], c.Off[:n])
	c.Off[0] = 0
}

// CSR returns the graph's flat adjacency view.
func (g *Graph) CSR() *CSR { return &g.csr }
