// Package fingerprint computes a canonical, collision-resistant
// identity for a catalog.Query: the cache key of the serving layer
// (internal/plancache, internal/serve).
//
// The fingerprint is invariant under relation relabeling and join-edge
// ordering — two queries that differ only by a permutation of RelIDs
// (and the induced renumbering of predicate endpoints, in any order)
// hash equal — while any change to a cardinality, a selection or join
// selectivity, a distinct count, a histogram, or the join-graph shape
// changes the hash (modulo SHA-256 collisions).
//
// Canonicalization is iterated neighborhood refinement over the join
// graph (Weisfeiler–Leman color refinement): each relation starts with
// a color derived from its exact statistics (cardinality, sorted
// selection selectivities), and rounds replace every color with a hash
// of itself plus the sorted multiset of (edge statistics, neighbor
// color) over incident join predicates. When the stable partition still
// holds ties — symmetric queries: identical leaves of a star, say —
// individualization-refinement resolves them: each tied relation is
// distinguished in turn, refinement re-runs, and the lexicographically
// smallest canonical encoding wins. The final fingerprint is the
// SHA-256 of the canonical byte encoding (exact statistics written in
// canonical relation order, predicates sorted by canonical endpoints).
//
// The implementation is the serving hot path: every request hashes its
// query before the plan-cache lookup, so canonicalization runs over a
// flat half-edge CSR with all working state owned by a reusable Hasher
// (pooled behind the package-level entry points). Steady state is zero
// heap allocations per fingerprint; ALLOC_BUDGETS.json pins it. The
// pre-rewrite implementation is frozen verbatim in legacy.go and the
// differential suite proves the two produce byte-identical digests.
//
// Everything is deterministic and label-free: no map iteration order,
// no wall clock, no randomness (the detrand analyzer is in force).
package fingerprint

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sync"

	"joinopt/internal/catalog"
)

// Size is the fingerprint length in bytes (SHA-256).
const Size = 32

// SchemaVersion identifies the canonical-encoding scheme this package
// currently produces. Any change to the canonical byte encoding — the
// statistics written, their order, the refinement procedure — changes
// what bytes a given query hashes to, which silently invalidates every
// fingerprint persisted under the old scheme. Bump this constant with
// any such change: the plan-cache journal (internal/persist) stamps it
// into its file headers and refuses to replay files written under a
// different schema, turning a silent cache-poisoning hazard into a
// loud cold start. (The zero-alloc rewrite did NOT bump it: digests are
// byte-identical to the legacy path, proven by the differential suite
// and the golden corpus.)
const SchemaVersion = 1

// encodingMagic prefixes every canonical encoding; the trailing digit
// tracks SchemaVersion.
const encodingMagic = "ljqfp1"

// irSearchBudget bounds individualization-refinement: the number of
// individualizations tried across the whole search. Each tied cell
// always gets at least its first candidate, so canonicalization
// terminates regardless; the budget only caps how exhaustively highly
// symmetric queries are disambiguated.
const irSearchBudget = 256

// irIndivSalt distinguishes an individualized vertex's color from its
// cell color.
const irIndivSalt = 0x1d1d

// Fingerprint is the canonical identity of a query shape: equal for
// isomorphic queries, distinct (collision-resistantly) otherwise.
type Fingerprint [Size]byte

// String renders the full fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short renders the first eight bytes as hex — the operator-friendly
// prefix used in logs and status pages.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:8]) }

// Parse decodes a full-length hex fingerprint (as printed by String).
func Parse(s string) (Fingerprint, error) {
	var f Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil {
		return f, fmt.Errorf("fingerprint: %w", err)
	}
	if len(b) != Size {
		return f, fmt.Errorf("fingerprint: want %d hex bytes, got %d", Size, len(b))
	}
	copy(f[:], b)
	return f, nil
}

var hasherPool = sync.Pool{New: func() any { return NewHasher() }}

// Of returns the canonical fingerprint of q. q is not mutated. Uses a
// pooled Hasher: zero allocations steady-state.
func Of(q *catalog.Query) Fingerprint {
	h := hasherPool.Get().(*Hasher)
	f := h.Of(q)
	h.release()
	hasherPool.Put(h)
	return f
}

// Canonical returns the fingerprint together with the canonical
// relation order: order[i] is the original RelID placed at canonical
// position i. The order is what lets a cached plan (stored in
// canonical coordinates) be translated into any isomorphic query's
// labeling. q is not mutated. The returned order is freshly allocated,
// at its final size; use Hasher.Canonical with a reused buffer to avoid
// even that one allocation.
func Canonical(q *catalog.Query) (Fingerprint, []catalog.RelID) {
	h := hasherPool.Get().(*Hasher)
	f, order := h.Canonical(q, make([]catalog.RelID, 0, len(q.Relations)))
	h.release()
	hasherPool.Put(h)
	return f, order
}

// Relabel returns q rewritten into the canonical labeling given by
// order (as returned by Canonical): relations appear in canonical
// order (position i holds the original relation order[i], name kept),
// predicate endpoints are renumbered and normalized (Left < Right,
// derived selectivities filled), and the predicate list is sorted
// canonically. Normalize is therefore a no-op on the result. q is not
// mutated, and the result shares no slice with it; histograms, which
// nothing writes, are shared. It is built in one pass, one allocation
// per lane. Allocates; it belongs on the cache miss path, not the hit
// path. Optimizing the relabeled query instead of the original makes
// the search trajectory, and so the cached plan, a function of the
// fingerprint and seed alone.
func Relabel(q *catalog.Query, order []catalog.RelID) *catalog.Query {
	n := len(q.Relations)
	pos := make([]catalog.RelID, n)
	nsel := 0
	for i, old := range order {
		pos[old] = catalog.RelID(i)
		nsel += len(q.Relations[old].Selections)
	}
	out := &catalog.Query{
		Relations:  make([]catalog.Relation, n),
		Predicates: make([]catalog.Predicate, len(q.Predicates)),
	}
	// Every relation's selections share one backing array, each cut
	// at its own length so that growing one cannot overwrite the next.
	sels := make([]catalog.Selection, 0, nsel)
	for i, old := range order {
		r := q.Relations[old]
		if len(r.Selections) == 0 {
			r.Selections = nil // as catalog.Query.Clone leaves an empty list
		} else {
			start := len(sels)
			sels = append(sels, r.Selections...)
			r.Selections = sels[start:len(sels):len(sels)]
		}
		out.Relations[i] = r
	}
	for i, p := range q.Predicates {
		p.Left, p.Right = pos[p.Left], pos[p.Right]
		p.Normalize() // Left < Right in canonical positions, swapping sides if needed
		out.Predicates[i] = p
	}
	slices.SortStableFunc(out.Predicates, cmpPredicate)
	return out
}

// cmpPredicate orders predicates by (Left, Right, selectivity bits,
// distinct bits): a total, label-free order once endpoints are
// canonical positions.
func cmpPredicate(a, b catalog.Predicate) int {
	if c := cmp.Compare(a.Left, b.Left); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Right, b.Right); c != 0 {
		return c
	}
	if c := cmp.Compare(math.Float64bits(a.Selectivity), math.Float64bits(b.Selectivity)); c != 0 {
		return c
	}
	if c := cmp.Compare(math.Float64bits(a.LeftDistinct), math.Float64bits(b.LeftDistinct)); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(a.RightDistinct), math.Float64bits(b.RightDistinct))
}

// ---------------------------------------------------------------------
// Hot-path machinery: half-edge CSR, WL refinement over reused buffers,
// individualization-refinement with per-depth scratch levels.

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// mix folds one 64-bit word into an FNV-1a state, byte by byte.
// Fully unrolled: the FNV chain is serial (each step's multiply feeds
// the next), so the recoverable overhead is loop control. The unroll
// costs mix its inlinability, but measured end to end the straight-line
// body wins over the inlined loop.
//
//ljqlint:hotpath
func mix(h, v uint64) uint64 {
	h = (h ^ (v & 0xff)) * fnvPrime
	h = (h ^ ((v >> 8) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 16) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 24) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 32) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 40) & 0xff)) * fnvPrime
	h = (h ^ ((v >> 48) & 0xff)) * fnvPrime
	h = (h ^ (v >> 56)) * fnvPrime
	return h
}

//ljqlint:hotpath
func mixFloat(h uint64, f float64) uint64 { return mix(h, math.Float64bits(f)) }

// histNilHash is histHash(nil), folded at package init: the common
// no-histogram case pays zero mix steps for it.
var histNilHash = mix(fnvOffset, 0xdead)

//ljqlint:hotpath
func histHash(h *catalog.Histogram) uint64 {
	acc := fnvOffset
	if h == nil {
		return histNilHash
	}
	acc = mix(acc, uint64(h.Domain))
	acc = mix(acc, uint64(len(h.Counts)))
	for _, c := range h.Counts {
		acc = mixFloat(acc, c)
	}
	return acc
}

//ljqlint:hotpath
func sideHash(distinct float64, h *catalog.Histogram) uint64 {
	acc := fnvOffset
	acc = mixFloat(acc, distinct)
	acc = mix(acc, histHash(h))
	return acc
}

// sortU64 sorts in place. slices.Sort rather than sort.Slice: the
// latter boxes the slice header into a sort.Interface, a heap
// allocation per call that the escape gate flags inside refineStep's
// //ljqlint:hotpath inner loop (n vertices × WL rounds of them).
func sortU64(s []uint64) { slices.Sort(s) }

// vcPair pairs a vertex with its color for partition-cell scans.
type vcPair struct {
	c uint64
	v int32
}

// cmpVC orders by (color, vertex). A named top-level function: passing
// it to slices.SortFunc costs no closure allocation, unlike a capturing
// literal.
func cmpVC(a, b vcPair) int {
	switch {
	case a.c < b.c:
		return -1
	case a.c > b.c:
		return 1
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// irLevel is the per-recursion-depth scratch of the IR search: color
// buffers for refinement, the tied cell, and the incumbent best
// (encoding, order) among the depth's individualization candidates.
// One level is reused across all candidates tried at its depth.
type irLevel struct {
	cur, next, indiv []uint64
	cell, ord        []int
	bestOrd          []int
	enc, bestEnc     []byte
}

// Hasher computes canonical fingerprints with all working state held in
// reusable buffers: after warm-up, a Hasher fingerprints queries of any
// previously-seen size with zero heap allocations. Not safe for
// concurrent use; the package-level Of/Canonical wrap a sync.Pool of
// Hashers for concurrent callers.
type Hasher struct {
	q     *catalog.Query
	n     int
	npred int

	// preds holds normalized copies of q's predicates (Left < Right,
	// selectivity filled) so q itself is never mutated and never cloned.
	preds []catalog.Predicate

	// Half-edge CSR: the incidences of vertex v live at
	// heTo/hePre[heOff[v]:heOff[v+1]]. Unlike joingraph.Graph — which
	// merges parallel predicates into one edge — fingerprinting keeps
	// every predicate as its own half-edge pair: the multiset of
	// per-predicate statistics is part of the identity. hePre is the
	// half-edge's statistics hash chain mix(mix(mix(fnv, mySide),
	// otherSide), sel), folded once at reset: it is constant across WL
	// rounds and IR nodes, so refineStep pays one mix per edge instead
	// of four.
	heOff                 []int32
	heTo                  []int32
	hePre                 []uint64
	initCol               []uint64
	contrib, clsBuf, sels []uint64
	pairs                 []vcPair
	pos                   []int

	// encode scratch: predicate records are appended into recBuf with
	// recOff boundaries, then sliced into recs for the bytewise sort.
	recBuf []byte
	recOff []int
	recs   [][]byte

	levels []*irLevel
	budget int
}

// NewHasher returns an empty Hasher. Buffers grow on first use and are
// reused afterwards.
func NewHasher() *Hasher { return &Hasher{} }

// Of returns the canonical fingerprint of q. q is not mutated. Zero
// allocations once the Hasher has seen a query at least this large.
//
//ljqlint:hotpath
func (h *Hasher) Of(q *catalog.Query) Fingerprint {
	h.reset(q)
	enc, _ := h.search(0, h.initCol)
	return sha256.Sum256(enc)
}

// Canonical returns the fingerprint and the canonical relation order,
// appended into dst (pass a reused buffer for zero allocations).
func (h *Hasher) Canonical(q *catalog.Query, dst []catalog.RelID) (Fingerprint, []catalog.RelID) {
	h.reset(q)
	enc, ord := h.search(0, h.initCol)
	dst = dst[:0]
	for _, v := range ord {
		dst = append(dst, catalog.RelID(v))
	}
	return sha256.Sum256(enc), dst
}

// release drops references into the caller's query so a pooled Hasher
// does not pin relations, selections, or histograms across uses.
func (h *Hasher) release() {
	h.q = nil
	for i := range h.preds {
		h.preds[i].LeftHist = nil
		h.preds[i].RightHist = nil
	}
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// reset points the Hasher at q and rebuilds the half-edge CSR and
// initial colors in place. Deliberately NOT //ljqlint:hotpath: the
// grow-on-demand branches contain heap allocations by design — they
// run only the first time the Hasher sees a given size class, and the
// 0-allocs/op benchmark ceilings prove they stay cold in steady state.
func (h *Hasher) reset(q *catalog.Query) {
	h.q = q
	h.n = len(q.Relations)
	h.npred = len(q.Predicates)
	h.budget = irSearchBudget

	if cap(h.preds) < h.npred {
		h.preds = make([]catalog.Predicate, h.npred)
	} else {
		h.preds = h.preds[:h.npred]
	}
	copy(h.preds, q.Predicates)
	for i := range h.preds {
		h.preds[i].Normalize()
	}

	h.heOff = growI32(h.heOff, h.n+1)
	for i := range h.heOff {
		h.heOff[i] = 0
	}
	for i := range h.preds {
		h.heOff[int(h.preds[i].Left)+1]++
		h.heOff[int(h.preds[i].Right)+1]++
	}
	maxDeg := int32(0)
	for v := 1; v <= h.n; v++ {
		if h.heOff[v] > maxDeg {
			maxDeg = h.heOff[v]
		}
		h.heOff[v] += h.heOff[v-1]
	}
	if cap(h.contrib) < int(maxDeg) {
		h.contrib = make([]uint64, 0, maxDeg)
	}

	nhe := 2 * h.npred
	h.heTo = growI32(h.heTo, nhe)
	h.hePre = growU64(h.hePre, nhe)
	h.pos = growInt(h.pos, h.n)
	for v := 0; v < h.n; v++ {
		h.pos[v] = int(h.heOff[v])
	}
	for i := range h.preds {
		p := &h.preds[i]
		ls := sideHash(p.LeftDistinct, p.LeftHist)
		rs := sideHash(p.RightDistinct, p.RightHist)
		sel := mixFloat(fnvOffset, p.Selectivity)
		l, r := int(p.Left), int(p.Right)
		j := h.pos[l]
		h.heTo[j], h.hePre[j] = int32(r), mix(mix(mix(fnvOffset, ls), rs), sel)
		h.pos[l]++
		j = h.pos[r]
		h.heTo[j], h.hePre[j] = int32(l), mix(mix(mix(fnvOffset, rs), ls), sel)
		h.pos[r]++
	}

	h.initCol = growU64(h.initCol, h.n)
	for v := range q.Relations {
		rel := &q.Relations[v]
		acc := mix(fnvOffset, uint64(rel.Cardinality))
		sels := h.sels[:0]
		for _, s := range rel.Selections {
			sels = append(sels, math.Float64bits(s.Selectivity))
		}
		sortU64(sels)
		h.sels = sels
		acc = mix(acc, uint64(len(sels)))
		for _, s := range sels {
			acc = mix(acc, s)
		}
		h.initCol[v] = acc
	}

	h.clsBuf = growU64(h.clsBuf, h.n)
	if cap(h.pairs) < h.n {
		h.pairs = make([]vcPair, h.n)
	} else {
		h.pairs = h.pairs[:h.n]
	}
}

// refineStep computes one WL round: each color becomes a hash of
// itself and the sorted multiset of (edge statistics, neighbor color).
//
//ljqlint:hotpath
func (h *Hasher) refineStep(colors, out []uint64) {
	for v := 0; v < h.n; v++ {
		contrib := h.contrib[:0]
		for i := h.heOff[v]; i < h.heOff[v+1]; i++ {
			contrib = append(contrib, mix(h.hePre[i], colors[h.heTo[i]])) //ljqlint:allow hotalloc -- contrib is pre-sized to max degree in reset; this append never grows it
		}
		sortU64(contrib)
		acc := mix(fnvOffset, colors[v])
		acc = mix(acc, uint64(len(contrib)))
		for _, c := range contrib {
			acc = mix(acc, c)
		}
		out[v] = acc
	}
}

// classes counts distinct colors using the shared scratch buffer.
//
//ljqlint:hotpath
func (h *Hasher) classes(colors []uint64) int {
	s := h.clsBuf[:len(colors)]
	copy(s, colors)
	sortU64(s)
	k := 0
	for i, c := range s {
		if i == 0 || c != s[i-1] {
			k++
		}
	}
	return k
}

// level returns depth d's scratch, growing the level stack and its
// buffers as needed (only on first use at a given depth/size).
func (h *Hasher) level(d int) *irLevel {
	for len(h.levels) <= d {
		h.levels = append(h.levels, &irLevel{})
	}
	lv := h.levels[d]
	lv.cur = growU64(lv.cur, h.n)
	lv.next = growU64(lv.next, h.n)
	lv.indiv = growU64(lv.indiv, h.n)
	return lv
}

// search is individualization-refinement at recursion depth d: refine
// colors to a stable partition; if discrete, encode under the induced
// order; otherwise individualize each member of the first tied cell in
// turn and keep the lexicographically smallest encoding. The returned
// slices alias the depth's level buffers — callers copy before the
// level is reused.
//
// Control flow (candidate visit order, budget decrements, tie-breaks)
// mirrors the frozen legacy path exactly; the differential suite holds
// the two to byte-identical outputs.
func (h *Hasher) search(d int, colors []uint64) ([]byte, []int) {
	lv := h.level(d)
	cur, next := lv.cur, lv.next
	copy(cur, colors)
	k := h.classes(cur)
	for round := 0; round < h.n; round++ {
		h.refineStep(cur, next)
		nk := h.classes(next)
		cur, next = next, cur
		if nk == k {
			break
		}
		k = nk
	}
	lv.cur, lv.next = cur, next
	stable := cur

	// Partition scan over (color, vertex) pairs: the first cell with
	// more than one member is the tied cell; if none, the sorted pair
	// order is the canonical vertex order.
	pairs := h.pairs[:h.n]
	for v := 0; v < h.n; v++ {
		pairs[v] = vcPair{c: stable[v], v: int32(v)}
	}
	slices.SortFunc(pairs, cmpVC)
	cell := lv.cell[:0]
	for i := 0; i < h.n; {
		j := i
		for j < h.n && pairs[j].c == pairs[i].c {
			j++
		}
		if j-i > 1 {
			for m := i; m < j; m++ {
				cell = append(cell, int(pairs[m].v))
			}
			break
		}
		i = j
	}
	lv.cell = cell

	if len(cell) == 0 {
		ord := lv.ord[:0]
		for i := 0; i < h.n; i++ {
			ord = append(ord, int(pairs[i].v))
		}
		lv.ord = ord
		lv.enc = h.encode(ord, lv.enc[:0])
		return lv.enc, lv.ord
	}

	hasBest := false
	for _, v := range cell {
		if hasBest && h.budget <= 0 {
			break
		}
		h.budget--
		copy(lv.indiv, stable)
		// Individualize v: give it a color derived from, but distinct
		// from, its cell color.
		lv.indiv[v] = mix(mix(fnvOffset, lv.indiv[v]), irIndivSalt)
		enc, ord := h.search(d+1, lv.indiv)
		if !hasBest || bytes.Compare(enc, lv.bestEnc) < 0 {
			lv.bestEnc = append(lv.bestEnc[:0], enc...)
			lv.bestOrd = append(lv.bestOrd[:0], ord...)
			hasBest = true
		}
	}
	return lv.bestEnc, lv.bestOrd
}

//ljqlint:hotpath
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// encode appends the canonical byte encoding under the given relation
// order to dst: relations in order with cardinality and sorted
// selection selectivities, then predicates renumbered to canonical
// positions, sides oriented low-position-first, sorted bytewise. Two
// isomorphic queries produce identical encodings under their canonical
// orders; any statistic or shape difference produces different bytes.
func (h *Hasher) encode(ord []int, dst []byte) []byte {
	dst = append(dst, encodingMagic...)
	dst = appendU64(dst, uint64(h.n))
	dst = appendU64(dst, uint64(h.npred))

	pos := h.pos
	for i, v := range ord {
		pos[v] = i
	}
	for _, v := range ord {
		rel := &h.q.Relations[v]
		dst = appendU64(dst, uint64(rel.Cardinality))
		sels := h.sels[:0]
		for _, s := range rel.Selections {
			sels = append(sels, math.Float64bits(s.Selectivity))
		}
		sortU64(sels)
		h.sels = sels
		dst = appendU64(dst, uint64(len(sels)))
		for _, s := range sels {
			dst = appendU64(dst, s)
		}
	}

	// Build the predicate records into the shared buffer, then sort
	// views of them bytewise. recBuf may reallocate while growing, so
	// the record views are sliced only after all appends are done.
	rb := h.recBuf[:0]
	off := h.recOff[:0]
	for i := range h.preds {
		p := &h.preds[i]
		off = append(off, len(rb))
		a, b := pos[p.Left], pos[p.Right]
		ad, bd := p.LeftDistinct, p.RightDistinct
		ah, bh := p.LeftHist, p.RightHist
		if a > b {
			a, b = b, a
			ad, bd = bd, ad
			ah, bh = bh, ah
		}
		rb = appendU64(rb, uint64(a))
		rb = appendU64(rb, uint64(b))
		rb = appendU64(rb, math.Float64bits(p.Selectivity))
		rb = appendU64(rb, math.Float64bits(ad))
		rb = appendU64(rb, math.Float64bits(bd))
		for _, hg := range [2]*catalog.Histogram{ah, bh} {
			if hg == nil {
				rb = appendU64(rb, 0)
				continue
			}
			rb = appendU64(rb, 1)
			rb = appendU64(rb, uint64(hg.Domain))
			rb = appendU64(rb, uint64(len(hg.Counts)))
			for _, c := range hg.Counts {
				rb = appendU64(rb, math.Float64bits(c))
			}
		}
	}
	off = append(off, len(rb))
	h.recBuf, h.recOff = rb, off

	recs := h.recs[:0]
	for i := 0; i < h.npred; i++ {
		recs = append(recs, rb[off[i]:off[i+1]])
	}
	h.recs = recs
	slices.SortFunc(recs, bytes.Compare)
	for _, r := range recs {
		dst = append(dst, r...)
	}
	return dst
}
