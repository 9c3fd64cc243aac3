package serve

import (
	"encoding/hex"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/qfile"
	"joinopt/internal/wire"
)

// answer is what the /optimize handler holds once the cache has
// answered: the entry in canonical coordinates, and the requester's
// query with its canonical order, which maps each canonical position p
// to the requester's relation order[p]. The handler writes its response
// straight from these, in either codec, byte for byte as
// buildResponse's envelope encodes: no OptimizeResponse, no translated
// plan, no Explain string.
type answer struct {
	q           *catalog.Query
	order       []catalog.RelID
	fp          fingerprint.Fingerprint
	entry       *plancache.Entry
	hit, shared bool
}

func (a *answer) tier() int { return int(plancache.TierRank(a.entry.Tier)) }

// appendExplain appends the envelope's Explain: the plan in the
// requester's relations, then the tier line.
func (a *answer) appendExplain(dst []byte) []byte {
	dst = a.entry.Plan.AppendExplain(dst, a.q, a.order)
	return append(dst, tierExplainLine(a.tier())...)
}

// appendJSON appends the envelope as encoding/json's Encoder with
// SetIndent("", "  ") writes an OptimizeResponse: fields in struct
// order, degradeReason left out when empty, an empty order or names
// list as null, the float in ES6 form, strings HTML-safe, and a
// trailing newline. scratch holds each name and the Explain before it
// is quoted; both buffers are returned for reuse. The plan's TotalCost
// must be finite.
func (a *answer) appendJSON(dst, scratch []byte) ([]byte, []byte) {
	pl := a.entry.Plan
	dst = append(dst, "{\n  \"fingerprint\": \""...)
	dst = hex.AppendEncode(dst, a.fp[:])
	dst = append(dst, "\",\n  \"cacheHit\": "...)
	dst = strconv.AppendBool(dst, a.hit)
	dst = append(dst, ",\n  \"coalesced\": "...)
	dst = strconv.AppendBool(dst, a.shared)
	dst = append(dst, ",\n  \"degraded\": "...)
	dst = strconv.AppendBool(dst, pl.Degraded)
	if pl.DegradeReason != "" {
		dst = append(dst, ",\n  \"degradeReason\": "...)
		dst = qfile.AppendString(dst, pl.DegradeReason)
	}
	dst = append(dst, ",\n  \"budgetUsed\": "...)
	dst = strconv.AppendInt(dst, a.entry.BudgetUsed, 10)
	dst = append(dst, ",\n  \"totalCost\": "...)
	dst = qfile.AppendFloat(dst, pl.TotalCost)
	dst = append(dst, ",\n  \"order\": "...)
	n := 0
	for _, c := range pl.Components {
		for _, p := range c.Perm {
			dst = jsonElem(dst, n)
			dst = strconv.AppendInt(dst, int64(a.order[p]), 10)
			n++
		}
	}
	dst = jsonEnd(dst, n)
	dst = append(dst, ",\n  \"names\": "...)
	n = 0
	for _, c := range pl.Components {
		for _, p := range c.Perm {
			dst = jsonElem(dst, n)
			scratch = plan.AppendRelationName(scratch[:0], a.q, a.order[p])
			dst = qfile.AppendString(dst, scratch)
			n++
		}
	}
	dst = jsonEnd(dst, n)
	dst = append(dst, ",\n  \"tier\": "...)
	dst = strconv.AppendInt(dst, int64(a.tier()), 10)
	dst = append(dst, ",\n  \"explain\": "...)
	scratch = a.appendExplain(scratch[:0])
	dst = qfile.AppendString(dst, scratch)
	return append(dst, "\n}\n"...), scratch
}

// jsonElem opens element i of a top-level member's array.
func jsonElem(dst []byte, i int) []byte {
	if i == 0 {
		return append(dst, "[\n    "...)
	}
	return append(dst, ",\n    "...)
}

// jsonEnd closes an array of n elements; an empty one is a nil slice,
// which encoding/json writes as null.
func jsonEnd(dst []byte, n int) []byte {
	if n == 0 {
		return append(dst, "null"...)
	}
	return append(dst, "\n  ]"...)
}

// appendWire appends the envelope as wire.AppendResponse frames it.
// scratch holds the fingerprint's hex, each name and the Explain; both
// buffers are returned for reuse.
func (a *answer) appendWire(dst, scratch []byte) ([]byte, []byte) {
	pl := a.entry.Plan
	base := len(dst)
	dst = wire.StartFrame(dst, wire.KindResponse)
	scratch = hex.AppendEncode(scratch[:0], a.fp[:])
	dst = wire.AppendStr(dst, scratch)
	dst = append(dst, wire.ResponseFlags(a.hit, a.shared, pl.Degraded))
	dst = wire.AppendStr(dst, pl.DegradeReason)
	dst = wire.AppendU64(dst, uint64(a.entry.BudgetUsed))
	dst = wire.AppendF64(dst, pl.TotalCost)
	n := 0
	for _, c := range pl.Components {
		n += len(c.Perm)
	}
	dst = wire.AppendU32(dst, uint32(n))
	for _, c := range pl.Components {
		for _, p := range c.Perm {
			dst = wire.AppendU32(dst, uint32(a.order[p]))
		}
	}
	dst = wire.AppendU32(dst, uint32(n))
	for _, c := range pl.Components {
		for _, p := range c.Perm {
			scratch = plan.AppendRelationName(scratch[:0], a.q, a.order[p])
			dst = wire.AppendStr(dst, scratch)
		}
	}
	dst = append(dst, byte(a.tier()))
	scratch = a.appendExplain(scratch[:0])
	dst = wire.AppendStr(dst, scratch)
	return wire.FinishFrame(dst, base), scratch
}

// respond writes a successful /optimize response from a. The codec is
// negotiated independently of the request's: Accept picks binary,
// everything else gets JSON. JSON cannot carry a NaN or infinite
// totalCost, so such a plan is answered 500, as encoding/json's refusal
// to encode it always was.
func respond(w http.ResponseWriter, r *http.Request, a *answer) {
	h := w.Header()
	h["X-Plan-Tier"] = planTierHeader(a.tier())
	rb := respBufPool.Get().(*respBuf)
	contentType := wireContentType
	if strings.Contains(r.Header.Get("Accept"), wireSubtype) {
		rb.out, rb.scratch = a.appendWire(rb.out[:0], rb.scratch)
	} else {
		if tc := a.entry.Plan.TotalCost; math.IsInf(tc, 0) || math.IsNaN(tc) {
			respBufPool.Put(rb)
			http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
			return
		}
		rb.out, rb.scratch = a.appendJSON(rb.out[:0], rb.scratch)
		contentType = jsonContentType
	}
	h["Content-Type"] = contentType
	h.Set("Content-Length", strconv.Itoa(len(rb.out)))
	w.WriteHeader(http.StatusOK)
	// Write errors mean the client went away; nothing useful remains.
	_, _ = w.Write(rb.out)
	if cap(rb.out)+cap(rb.scratch) <= jsonBufPoolCap {
		respBufPool.Put(rb)
	}
}

// respBuf is one pooled response: the bytes handed to net/http in a
// single sized Write, and the scratch they are quoted from. Warm
// buffers make writing a response allocation-free.
type respBuf struct {
	out, scratch []byte
}

var respBufPool = sync.Pool{New: func() any { return new(respBuf) }}
