package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/plancache"
	"joinopt/internal/qfile"
)

// POST /optimize/batch: many queries in one request.
//
//	{"queries": [<interchange query>, <interchange query>, ...]}
//
// The batch path exists for cache-affinity clients (the cluster router,
// bulk plan pre-warming) that would otherwise pay one round trip per
// query. Semantics, per the batch contract:
//
//   - Every query is fingerprinted first; intra-batch duplicates of the
//     same canonical shape coalesce onto ONE optimizer run (and any
//     concurrent out-of-batch request for the shape joins the same
//     singleflight), but each item is still translated into its own
//     relation numbering — two labelings of one shape share a plan, not
//     a response.
//   - Results come back in input order, one slot per query. A slot
//     holds either the plan or that item's own error and would-be HTTP
//     status; one unparseable or shed item never poisons its batchmates
//     (no all-or-nothing 500s).
//   - Whole-request errors are reserved for the envelope itself:
//     non-POST (405), oversized body (413), malformed JSON or an empty
//     or over-long query list (400).
type BatchRequest struct {
	Queries []json.RawMessage `json:"queries"`
}

// BatchItem is one slot of a BatchResponse: exactly one of Plan or
// Error is set. Status carries the HTTP status the item would have
// received as a standalone POST /optimize (400 parse failure, 503
// shed, 500 internal), letting callers retry shed items selectively.
type BatchItem struct {
	Plan   *OptimizeResponse `json:"plan,omitempty"`
	Error  string            `json:"error,omitempty"`
	Status int               `json:"status,omitempty"`
}

// BatchResponse is the body of a POST /optimize/batch reply; Results
// is parallel to the request's Queries.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// batchShape is one parsed batch item: the requester-coordinate query
// plus its canonical identity.
type batchShape struct {
	q     *catalog.Query
	fp    fingerprint.Fingerprint
	order []catalog.RelID
}

func (s *Server) handleOptimizeBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed; POST a batch body", http.StatusMethodNotAllowed)
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
			http.StatusRequestEntityTooLarge)
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "malformed batch body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Queries) == 0 {
		http.Error(w, "batch carries no queries", http.StatusBadRequest)
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchItems {
		http.Error(w, fmt.Sprintf("batch carries %d queries; limit is %d",
			len(req.Queries), s.cfg.MaxBatchItems), http.StatusBadRequest)
		return
	}
	s.batches.Add(1)

	// Parse and fingerprint every item up front; parse failures claim
	// their slot immediately and never reach the limiter.
	results := make([]BatchItem, len(req.Queries))
	shapes := make([]*batchShape, len(req.Queries))
	type computed struct {
		claimed bool // set synchronously by the launch loop below
		owner   int  // slot index that owns the compute
		entry   *plancache.Entry
		hit     bool
		shared  bool
		err     error
	}
	unique := make(map[fingerprint.Fingerprint]*computed)
	for i, raw := range req.Queries {
		q, err := qfile.Decode(raw)
		if err != nil {
			results[i] = BatchItem{Error: err.Error(), Status: http.StatusBadRequest}
			continue
		}
		sh := &batchShape{q: q}
		sh.fp, sh.order = fingerprint.Canonical(q)
		shapes[i] = sh
		if _, dup := unique[sh.fp]; !dup {
			unique[sh.fp] = &computed{}
		}
	}

	// One compute per unique shape, concurrently; intra-batch
	// duplicates and concurrent out-of-batch requests coalesce through
	// the cache's singleflight layer. Launch in slot order so the
	// claiming item is deterministic.
	var wg sync.WaitGroup
	for i, sh := range shapes {
		if sh == nil {
			continue
		}
		c := unique[sh.fp]
		if c.claimed {
			continue // an earlier slot owns this shape's compute
		}
		c.claimed = true
		c.owner = i
		wg.Add(1)
		go func(sh *batchShape, c *computed) {
			defer wg.Done()
			defer func() {
				// Panic barrier (panicguard): a compute crash becomes
				// that item's 500, not a process kill.
				if rec := recover(); rec != nil {
					c.err = fmt.Errorf("serve: batch compute panicked: %v", rec)
				}
			}()
			c.entry, c.hit, c.shared, c.err = s.computeEntry(r.Context(), sh.fp, sh.q, sh.order)
		}(sh, c)
	}
	wg.Wait()

	for i, sh := range shapes {
		if sh == nil {
			continue // parse-failure slot already written
		}
		c := unique[sh.fp]
		if c.err != nil {
			status, msg, _ := s.optimizeFailure(c.err)
			results[i] = BatchItem{Error: msg, Status: status}
			continue
		}
		// A duplicate slot rode its batchmate's compute: report it
		// coalesced unless the shape was a plain cache hit anyway.
		shared := c.shared || (i != c.owner && !c.hit)
		results[i] = BatchItem{Plan: buildResponse(sh.q, sh.order, sh.fp, c.entry, c.hit, shared)}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}
