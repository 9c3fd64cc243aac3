// Package wire is the length-prefixed binary codec for the optimizer
// daemon's /optimize exchange — the compact alternative to the JSON
// interchange format on the serving hot path.
//
// Frame layout (all multi-byte integers little-endian):
//
//	magic   4 bytes  "LJW1"
//	kind    1 byte   1 = query, 2 = response, 3 = canonical
//	length  u32      payload byte count
//	payload …
//
// A request body is one query frame, optionally preceded by one
// canonical frame; a response body is one response frame. The body
// ends exactly where its last frame's payload does.
//
// Query payload:
//
//	u32 nRelations
//	per relation: str name · u64 cardinality · u32 nSelections · f64 each
//	u32 nPredicates
//	per predicate: u32 left · u32 right · f64 leftDistinct ·
//	  f64 rightDistinct · f64 selectivity · 2 × histogram
//	histogram: u8 present; if present: u64 domain · u32 nCounts · f64 each
//
// Canonical payload:
//
//	32 bytes fingerprint · u32 nOrder · u32 each
//
// A canonical frame carries the query's canonical fingerprint and
// order (fingerprint.Canonical), which the cluster router computed to
// pick the peer. The peer looks the fingerprint up and, on a hit whose
// plan covers exactly the query's relations, answers through the order
// without canonicalizing the query itself. Anything else falls through
// to the peer's own canonicalization: the hint is a lookup key, never
// a cache key. The order must be a permutation of 0..nOrder−1.
//
// Response payload:
//
//	str fingerprint (hex) · u8 flags (1 cacheHit | 2 coalesced |
//	4 degraded) · str degradeReason · u64 budgetUsed · f64 totalCost ·
//	u32 nOrder · u32 each · u32 nNames · str each · u8 tier · str explain
//
// Strings are u32 length + raw bytes. The decoder is hardened against
// hostile input: every count is checked against the bytes actually
// remaining before anything is allocated, the payload length must match
// the frame exactly (no trailing garbage), and DecodeQuery validates and
// normalizes the result — so decode∘encode is a fixed point, the
// property the fuzz harness pins.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"joinopt/internal/catalog"
)

// ContentType is the MIME type negotiated for the binary protocol: a
// request body carries it in Content-Type, a client asks for a binary
// response via Accept.
const ContentType = "application/x-ljq-wire"

const (
	magic      = "LJW1"
	headerSize = len(magic) + 1 + 4 // magic + kind + payload length

	// KindQuery / KindResponse / KindCanonical are the frame kind
	// discriminators.
	KindQuery     = byte(1)
	KindResponse  = byte(2)
	KindCanonical = byte(3)
)

// ErrBadFrame reports a structurally invalid frame (wrong magic, kind,
// truncated or oversized payload). Decode errors wrap it, so callers
// can map any malformed input to one HTTP 400 with errors.Is.
var ErrBadFrame = errors.New("wire: malformed frame")

// flag bits of the response flags byte.
const (
	flagCacheHit  = 1 << 0
	flagCoalesced = 1 << 1
	flagDegraded  = 1 << 2
	flagsKnown    = flagCacheHit | flagCoalesced | flagDegraded
)

// Response is the binary twin of serve.OptimizeResponse. The fields
// mirror it one-for-one; wire itself depends only on catalog.
type Response struct {
	Fingerprint   string
	CacheHit      bool
	Coalesced     bool
	Degraded      bool
	DegradeReason string
	BudgetUsed    int64
	TotalCost     float64
	Order         []int
	Names         []string
	Tier          int
	Explain       string
}

// IsFrame reports whether data begins with the wire magic — the cheap
// sniff the client uses to tell a binary response from a JSON one
// without trusting the response headers.
func IsFrame(data []byte) bool {
	return len(data) >= len(magic) && string(data[:len(magic)]) == magic
}

// --- encoding ---------------------------------------------------------

// StartFrame appends the header of a frame of the given kind to dst.
// Append the payload with the Append* functions, in the layout above,
// then call FinishFrame with base, the length of dst before StartFrame.
// AppendQuery and AppendResponse are written this way; a writer that
// holds a response's parts rather than a Response writes its frame the
// same way.
func StartFrame(dst []byte, kind byte) []byte {
	dst = append(dst, magic...)
	dst = append(dst, kind)
	// Payload length is patched in by FinishFrame.
	return append(dst, 0, 0, 0, 0)
}

// FinishFrame back-patches the payload length for the frame whose
// header starts at base.
func FinishFrame(dst []byte, base int) []byte {
	binary.LittleEndian.PutUint32(dst[base+len(magic)+1:], uint32(len(dst)-base-headerSize))
	return dst
}

// AppendU32 appends a u32 field.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends a u64 field.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendF64 appends an f64 field: the float's IEEE 754 bits as a u64.
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendStr appends a string field: its u32 length, then its bytes.
func AppendStr[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// ResponseFlags packs a response's flags byte.
func ResponseFlags(cacheHit, coalesced, degraded bool) byte {
	var flags byte
	if cacheHit {
		flags |= flagCacheHit
	}
	if coalesced {
		flags |= flagCoalesced
	}
	if degraded {
		flags |= flagDegraded
	}
	return flags
}

func appendHist(dst []byte, h *catalog.Histogram) []byte {
	if h == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = AppendU64(dst, uint64(h.Domain))
	dst = AppendU32(dst, uint32(len(h.Counts)))
	for _, c := range h.Counts {
		dst = AppendF64(dst, c)
	}
	return dst
}

// AppendQuery appends a complete query frame to dst and returns the
// extended slice. The append style lets callers reuse pooled buffers.
func AppendQuery(dst []byte, q *catalog.Query) []byte {
	base := len(dst)
	dst = StartFrame(dst, KindQuery)
	dst = AppendU32(dst, uint32(len(q.Relations)))
	for i := range q.Relations {
		rel := &q.Relations[i]
		dst = AppendStr(dst, rel.Name)
		dst = AppendU64(dst, uint64(rel.Cardinality))
		dst = AppendU32(dst, uint32(len(rel.Selections)))
		for _, s := range rel.Selections {
			dst = AppendF64(dst, s.Selectivity)
		}
	}
	dst = AppendU32(dst, uint32(len(q.Predicates)))
	for i := range q.Predicates {
		p := &q.Predicates[i]
		dst = AppendU32(dst, uint32(p.Left))
		dst = AppendU32(dst, uint32(p.Right))
		dst = AppendF64(dst, p.LeftDistinct)
		dst = AppendF64(dst, p.RightDistinct)
		dst = AppendF64(dst, p.Selectivity)
		dst = appendHist(dst, p.LeftHist)
		dst = appendHist(dst, p.RightHist)
	}
	return FinishFrame(dst, base)
}

// EncodeQuery returns a freshly allocated query frame.
func EncodeQuery(q *catalog.Query) []byte { return AppendQuery(nil, q) }

// queryLen is the exact length of q's query frame.
func queryLen(q *catalog.Query) int {
	n := headerSize + 4 + 4 // the relation and predicate counts
	for _, r := range q.Relations {
		n += minRelationSize + len(r.Name) + 8*len(r.Selections)
	}
	for _, p := range q.Predicates {
		n += minPredicateSize
		for _, h := range [2]*catalog.Histogram{p.LeftHist, p.RightHist} {
			if h != nil {
				n += 8 + 4 + 8*len(h.Counts)
			}
		}
	}
	return n
}

// Canonical is a canonical frame's content: a query's canonical
// fingerprint and order, as fingerprint.Canonical returns them.
type Canonical struct {
	Fingerprint [32]byte
	Order       []catalog.RelID
}

// AppendCanonical appends a canonical frame for fp and order to dst.
func AppendCanonical(dst []byte, fp [32]byte, order []catalog.RelID) []byte {
	base := len(dst)
	dst = StartFrame(dst, KindCanonical)
	dst = append(dst, fp[:]...)
	dst = AppendU32(dst, uint32(len(order)))
	for _, r := range order {
		dst = AppendU32(dst, uint32(r))
	}
	return FinishFrame(dst, base)
}

// EncodeCanonicalQuery returns a canonical frame for fp and order
// followed by q's query frame, in one allocation of the exact size.
func EncodeCanonicalQuery(fp [32]byte, order []catalog.RelID, q *catalog.Query) []byte {
	dst := make([]byte, 0, headerSize+len(fp)+4+4*len(order)+queryLen(q))
	return AppendQuery(AppendCanonical(dst, fp, order), q)
}

// AppendResponse appends a complete response frame to dst.
func AppendResponse(dst []byte, r *Response) []byte {
	base := len(dst)
	dst = StartFrame(dst, KindResponse)
	dst = AppendStr(dst, r.Fingerprint)
	dst = append(dst, ResponseFlags(r.CacheHit, r.Coalesced, r.Degraded))
	dst = AppendStr(dst, r.DegradeReason)
	dst = AppendU64(dst, uint64(r.BudgetUsed))
	dst = AppendF64(dst, r.TotalCost)
	dst = AppendU32(dst, uint32(len(r.Order)))
	for _, o := range r.Order {
		dst = AppendU32(dst, uint32(o))
	}
	dst = AppendU32(dst, uint32(len(r.Names)))
	for _, n := range r.Names {
		dst = AppendStr(dst, n)
	}
	dst = append(dst, byte(r.Tier))
	dst = AppendStr(dst, r.Explain)
	return FinishFrame(dst, base)
}

// EncodeResponse returns a freshly allocated response frame.
func EncodeResponse(r *Response) []byte { return AppendResponse(nil, r) }

// --- decoding ---------------------------------------------------------

// reader walks a payload with sticky error state: after the first
// failure every subsequent read is a harmless zero, so decode code
// reads straight through and checks r.err once.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...)
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u8() byte {
	if r.err != nil || r.remaining() < 1 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.remaining() < 4 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.remaining() < 8 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// bytes reads a string field and returns its bytes, a slice of the
// payload.
func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if int64(n) > int64(r.remaining()) {
		r.fail("string length %d exceeds %d remaining bytes", n, r.remaining())
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *reader) str() string { return string(r.bytes()) }

// count reads a u32 element count and rejects it when count·minSize
// cannot fit in the remaining payload — the guard that keeps a hostile
// 4-billion-element header from provoking a giant allocation.
func (r *reader) count(minSize int, what string) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minSize) > int64(r.remaining()) {
		r.fail("%s count %d exceeds %d remaining bytes", what, n, r.remaining())
		return 0
	}
	return int(n)
}

// frame checks the envelope and returns the payload.
func frame(data []byte, kind byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrBadFrame, len(data), headerSize)
	}
	if !IsFrame(data) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if got := data[len(magic)]; got != kind {
		return nil, fmt.Errorf("%w: frame kind %d, want %d", ErrBadFrame, got, kind)
	}
	n := binary.LittleEndian.Uint32(data[len(magic)+1:])
	payload := data[headerSize:]
	if int64(n) != int64(len(payload)) {
		return nil, fmt.Errorf("%w: payload length %d, frame carries %d bytes", ErrBadFrame, n, len(payload))
	}
	return payload, nil
}

// SplitCanonical splits a leading canonical frame off data and returns
// its content and the bytes after it. When data does not start with a
// canonical frame header it returns a zero Canonical and data itself;
// a canonical frame that is malformed, or whose order is not a
// permutation of 0..nOrder−1, is an ErrBadFrame.
func SplitCanonical(data []byte) (Canonical, []byte, error) {
	var c Canonical
	if len(data) < headerSize || data[len(magic)] != KindCanonical || !IsFrame(data) {
		return c, data, nil
	}
	n := int64(binary.LittleEndian.Uint32(data[len(magic)+1:]))
	if n < int64(len(c.Fingerprint)) || n > int64(len(data)-headerSize) {
		return c, data, fmt.Errorf("%w: canonical payload of %d bytes in a %d-byte body", ErrBadFrame, n, len(data))
	}
	end := headerSize + int(n)
	r := &reader{b: data[:end], off: headerSize + copy(c.Fingerprint[:], data[headerSize:])}
	c.Order = make([]catalog.RelID, r.count(4, "order"))
	for i := range c.Order {
		c.Order[i] = catalog.RelID(r.u32())
	}
	switch {
	case r.err != nil:
		return Canonical{}, data, r.err
	case r.remaining() != 0:
		return Canonical{}, data, fmt.Errorf("%w: %d trailing canonical payload bytes", ErrBadFrame, r.remaining())
	case !isPermutation(c.Order):
		return Canonical{}, data, fmt.Errorf("%w: canonical order is not a permutation", ErrBadFrame)
	}
	return c, data[end:], nil
}

// isPermutation reports whether order holds each of 0..len(order)−1
// once. It marks each value seen by complementing the element at that
// index, and undoes the marks before it returns true.
func isPermutation(order []catalog.RelID) bool {
	for _, v := range order {
		if v < 0 {
			v = ^v
		}
		if int(v) >= len(order) || order[v] < 0 {
			return false
		}
		order[v] = ^order[v]
	}
	for i := range order {
		order[i] = ^order[i]
	}
	return true
}

// minimum encoded sizes, used for count-vs-remaining guards.
const (
	minRelationSize  = 4 + 8 + 4                   // name len + cardinality + selection count
	minPredicateSize = predicateFieldsSize + 1 + 1 // plus two histogram markers

	predicateFieldsSize = 4 + 4 + 3*8 // endpoints + three stats
)

// DecodeQuery parses a query frame, validates it with the same
// structural rules the JSON path applies, and normalizes it (endpoint
// ordering, derived selectivities). Decoding is therefore idempotent:
// re-encoding the result and decoding again reproduces it exactly.
//
// The payload is read twice. The first pass checks every count and
// length against the bytes that remain, sums what each lane of the
// query holds and gathers the relation names; the second reads the
// checked payload without checks into one allocation per lane in use
// (query, relations, names, selections, predicates, histograms,
// counts). Nested slices share their lane's backing array, capped so
// an append by the caller copies instead of overwriting a neighbour.
func DecodeQuery(data []byte) (*catalog.Query, error) {
	payload, err := frame(data, KindQuery)
	if err != nil {
		return nil, err
	}
	l := lanesPool.Get().(*lanes)
	var q *catalog.Query
	if err = l.scan(payload); err == nil {
		q = l.query(payload)
	}
	if cap(l.names) <= lanesPoolMaxNames {
		lanesPool.Put(l)
	}
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q.Normalize()
	return q, nil
}

// lanes is what the first pass over a query payload learns: how many
// elements each lane holds, and the relation names end to end.
type lanes struct {
	rels, sels, preds, hists, counts int
	names                            []byte
}

// lanesPool recycles the names scratch, so a steady stream of queries
// gathers names without allocating.
var lanesPool = sync.Pool{New: func() any { return new(lanes) }}

// lanesPoolMaxNames bounds the names scratch a pooled lanes keeps: one
// query with huge names must not pin its scratch forever.
const lanesPoolMaxNames = 1 << 16

// scan is the checked pass. It reads the payload field by field as the
// layout lays it out, so a malformed payload fails with the error, and
// at the offset, of the first field that does not fit.
func (l *lanes) scan(payload []byte) error {
	*l = lanes{names: l.names[:0]}
	r := &reader{b: payload}
	l.rels = r.count(minRelationSize, "relation")
	for i := 0; i < l.rels && r.err == nil; i++ {
		l.names = append(l.names, r.bytes()...)
		r.u64()
		nsel := r.count(8, "selection")
		r.off += 8 * nsel // count checked that the selections fit
		l.sels += nsel
	}
	l.preds = r.count(minPredicateSize, "predicate")
	for i := 0; i < l.preds && r.err == nil; i++ {
		if r.remaining() >= predicateFieldsSize {
			r.off += predicateFieldsSize
		} else {
			// Read field by field to fail at the one that does not fit.
			r.u32()
			r.u32()
			r.u64()
			r.u64()
			r.u64()
		}
		l.hist(r)
		l.hist(r)
	}
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, r.remaining())
	}
	return nil
}

func (l *lanes) hist(r *reader) {
	switch present := r.u8(); present {
	case 0:
		return
	case 1:
	default:
		r.fail("histogram marker %d (want 0 or 1)", present)
		return
	}
	r.u64()
	n := r.count(8, "histogram bucket")
	r.off += 8 * n // count checked that the buckets fit
	l.hists++
	l.counts += n
}

// query is the unchecked pass over a payload scan accepted.
func (l *lanes) query(payload []byte) *catalog.Query {
	f := filler{b: payload, off: 4} // the relation count is l.rels
	q := &catalog.Query{}
	if l.rels > 0 {
		names := string(l.names)
		var sels []catalog.Selection
		if l.sels > 0 {
			sels = make([]catalog.Selection, l.sels)
		}
		q.Relations = make([]catalog.Relation, l.rels)
		for i := range q.Relations {
			rel := &q.Relations[i]
			n := int(f.u32())
			rel.Name, names = names[:n], names[n:]
			f.off += n
			rel.Cardinality = int64(f.u64())
			if n := int(f.u32()); n > 0 {
				rel.Selections, sels = sels[:n:n], sels[n:]
				for j := range rel.Selections {
					rel.Selections[j].Selectivity = f.f64()
				}
			}
		}
	}
	f.off += 4 // the predicate count is l.preds
	if l.preds > 0 {
		if l.hists > 0 {
			f.hists = make([]catalog.Histogram, l.hists)
			f.counts = make([]float64, l.counts)
		}
		q.Predicates = make([]catalog.Predicate, l.preds)
		for i := range q.Predicates {
			p := &q.Predicates[i]
			p.Left = catalog.RelID(int32(f.u32()))
			p.Right = catalog.RelID(int32(f.u32()))
			p.LeftDistinct = f.f64()
			p.RightDistinct = f.f64()
			p.Selectivity = f.f64()
			p.LeftHist = f.hist()
			p.RightHist = f.hist()
		}
	}
	return q
}

// filler reads a payload scan accepted, filling the query's histograms
// and counts from their lanes.
type filler struct {
	b      []byte
	off    int
	hists  []catalog.Histogram
	counts []float64
}

func (f *filler) u8() byte {
	v := f.b[f.off]
	f.off++
	return v
}

func (f *filler) u32() uint32 {
	v := binary.LittleEndian.Uint32(f.b[f.off:])
	f.off += 4
	return v
}

func (f *filler) u64() uint64 {
	v := binary.LittleEndian.Uint64(f.b[f.off:])
	f.off += 8
	return v
}

func (f *filler) f64() float64 { return math.Float64frombits(f.u64()) }

func (f *filler) hist() *catalog.Histogram {
	if f.u8() == 0 {
		return nil
	}
	h := &f.hists[0]
	f.hists = f.hists[1:]
	h.Domain = int64(f.u64())
	n := int(f.u32())
	h.Counts, f.counts = f.counts[:n:n], f.counts[n:]
	for i := range h.Counts {
		h.Counts[i] = f.f64()
	}
	return h
}

// DecodeResponse parses a response frame. Unknown flag bits are
// rejected rather than dropped — a future protocol revision must bump
// the magic, not smuggle meaning through reserved bits.
func DecodeResponse(data []byte) (*Response, error) {
	payload, err := frame(data, KindResponse)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	out := &Response{}
	out.Fingerprint = r.str()
	flags := r.u8()
	if r.err == nil && flags&^byte(flagsKnown) != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrBadFrame, flags&^byte(flagsKnown))
	}
	out.CacheHit = flags&flagCacheHit != 0
	out.Coalesced = flags&flagCoalesced != 0
	out.Degraded = flags&flagDegraded != 0
	out.DegradeReason = r.str()
	out.BudgetUsed = int64(r.u64())
	out.TotalCost = r.f64()
	nOrder := r.count(4, "order")
	if r.err == nil && nOrder > 0 {
		out.Order = make([]int, nOrder)
	}
	for i := range out.Order {
		out.Order[i] = int(int32(r.u32()))
	}
	nNames := r.count(4, "name")
	if r.err == nil && nNames > 0 {
		out.Names = make([]string, nNames)
	}
	for i := range out.Names {
		out.Names[i] = r.str()
	}
	out.Tier = int(r.u8())
	out.Explain = r.str()
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, r.remaining())
	}
	return out, nil
}
