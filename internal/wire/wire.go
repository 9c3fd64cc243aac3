// Package wire is the length-prefixed binary codec for the optimizer
// daemon's /optimize exchange — the compact alternative to the JSON
// interchange format on the serving hot path.
//
// Frame layout (all multi-byte integers little-endian):
//
//	magic   4 bytes  "LJW1"
//	kind    1 byte   1 = query, 2 = response
//	length  u32      payload byte count (exactly the remaining bytes)
//	payload …
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

	"joinopt/internal/catalog"
)

// ContentType is the MIME type negotiated for the binary protocol: a
// request body carries it in Content-Type, a client asks for a binary
// response via Accept.
const ContentType = "application/x-ljq-wire"

const (
	magic      = "LJW1"
	headerSize = len(magic) + 1 + 4 // magic + kind + payload length

	// KindQuery / KindResponse are the frame kind discriminators.
	KindQuery    = byte(1)
	KindResponse = byte(2)
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
// mirror it one-for-one so the serving layer converts by plain field
// copy; wire itself depends only on catalog.
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

func appendHeader(dst []byte, kind byte) []byte {
	dst = append(dst, magic...)
	dst = append(dst, kind)
	// Payload length is patched in by finishFrame.
	return append(dst, 0, 0, 0, 0)
}

// finishFrame back-patches the payload length for the frame whose
// header starts at base.
func finishFrame(dst []byte, base int) []byte {
	binary.LittleEndian.PutUint32(dst[base+len(magic)+1:], uint32(len(dst)-base-headerSize))
	return dst
}

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendHist(dst []byte, h *catalog.Histogram) []byte {
	if h == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = appendU64(dst, uint64(h.Domain))
	dst = appendU32(dst, uint32(len(h.Counts)))
	for _, c := range h.Counts {
		dst = appendF64(dst, c)
	}
	return dst
}

// AppendQuery appends a complete query frame to dst and returns the
// extended slice. The append style lets callers reuse pooled buffers.
func AppendQuery(dst []byte, q *catalog.Query) []byte {
	base := len(dst)
	dst = appendHeader(dst, KindQuery)
	dst = appendU32(dst, uint32(len(q.Relations)))
	for i := range q.Relations {
		rel := &q.Relations[i]
		dst = appendStr(dst, rel.Name)
		dst = appendU64(dst, uint64(rel.Cardinality))
		dst = appendU32(dst, uint32(len(rel.Selections)))
		for _, s := range rel.Selections {
			dst = appendF64(dst, s.Selectivity)
		}
	}
	dst = appendU32(dst, uint32(len(q.Predicates)))
	for i := range q.Predicates {
		p := &q.Predicates[i]
		dst = appendU32(dst, uint32(p.Left))
		dst = appendU32(dst, uint32(p.Right))
		dst = appendF64(dst, p.LeftDistinct)
		dst = appendF64(dst, p.RightDistinct)
		dst = appendF64(dst, p.Selectivity)
		dst = appendHist(dst, p.LeftHist)
		dst = appendHist(dst, p.RightHist)
	}
	return finishFrame(dst, base)
}

// EncodeQuery returns a freshly allocated query frame.
func EncodeQuery(q *catalog.Query) []byte { return AppendQuery(nil, q) }

// AppendResponse appends a complete response frame to dst.
func AppendResponse(dst []byte, r *Response) []byte {
	base := len(dst)
	dst = appendHeader(dst, KindResponse)
	dst = appendStr(dst, r.Fingerprint)
	var flags byte
	if r.CacheHit {
		flags |= flagCacheHit
	}
	if r.Coalesced {
		flags |= flagCoalesced
	}
	if r.Degraded {
		flags |= flagDegraded
	}
	dst = append(dst, flags)
	dst = appendStr(dst, r.DegradeReason)
	dst = appendU64(dst, uint64(r.BudgetUsed))
	dst = appendF64(dst, r.TotalCost)
	dst = appendU32(dst, uint32(len(r.Order)))
	for _, o := range r.Order {
		dst = appendU32(dst, uint32(o))
	}
	dst = appendU32(dst, uint32(len(r.Names)))
	for _, n := range r.Names {
		dst = appendStr(dst, n)
	}
	dst = append(dst, byte(r.Tier))
	dst = appendStr(dst, r.Explain)
	return finishFrame(dst, base)
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

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if int64(n) > int64(r.remaining()) {
		r.fail("string length %d exceeds %d remaining bytes", n, r.remaining())
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

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

func (r *reader) hist() *catalog.Histogram {
	present := r.u8()
	switch present {
	case 0:
		return nil
	case 1:
	default:
		r.fail("histogram marker %d (want 0 or 1)", present)
		return nil
	}
	h := &catalog.Histogram{Domain: int64(r.u64())}
	n := r.count(8, "histogram bucket")
	if r.err != nil {
		return nil
	}
	h.Counts = make([]float64, n)
	for i := range h.Counts {
		h.Counts[i] = r.f64()
	}
	return h
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

// minimum encoded sizes, used for count-vs-remaining guards.
const (
	minRelationSize  = 4 + 8 + 4           // name len + cardinality + selection count
	minPredicateSize = 4 + 4 + 3*8 + 1 + 1 // endpoints + three stats + two histogram markers
)

// DecodeQuery parses a query frame, validates it with the same
// structural rules the JSON path applies, and normalizes it (endpoint
// ordering, derived selectivities). Decoding is therefore idempotent:
// re-encoding the result and decoding again reproduces it exactly.
func DecodeQuery(data []byte) (*catalog.Query, error) {
	payload, err := frame(data, KindQuery)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	q := &catalog.Query{}
	nrel := r.count(minRelationSize, "relation")
	if r.err == nil && nrel > 0 {
		q.Relations = make([]catalog.Relation, nrel)
	}
	for i := 0; i < nrel && r.err == nil; i++ {
		rel := &q.Relations[i]
		rel.Name = r.str()
		rel.Cardinality = int64(r.u64())
		nsel := r.count(8, "selection")
		if r.err != nil {
			break
		}
		if nsel > 0 {
			rel.Selections = make([]catalog.Selection, nsel)
		}
		for j := range rel.Selections {
			rel.Selections[j].Selectivity = r.f64()
		}
	}
	npred := r.count(minPredicateSize, "predicate")
	if r.err == nil && npred > 0 {
		q.Predicates = make([]catalog.Predicate, npred)
	}
	for i := 0; i < npred && r.err == nil; i++ {
		p := &q.Predicates[i]
		p.Left = catalog.RelID(int32(r.u32()))
		p.Right = catalog.RelID(int32(r.u32()))
		p.LeftDistinct = r.f64()
		p.RightDistinct = r.f64()
		p.Selectivity = r.f64()
		p.LeftHist = r.hist()
		p.RightHist = r.hist()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, r.remaining())
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q.Normalize()
	return q, nil
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
