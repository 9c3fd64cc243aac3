package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/cost"
	"joinopt/internal/fingerprint"
	"joinopt/internal/greedy"
	"joinopt/internal/persist"
	"joinopt/internal/plancache"
	"joinopt/internal/qfile"
	"joinopt/internal/serve"
	"joinopt/internal/wire"
)

// replayRequests is how many requests of the fixed-phase schedule the
// traced replay runs.
const replayRequests = 5000

// spanRec is one span as written to the trace file, one JSON per line.
type spanRec struct {
	Workload string `json:"workload"`
	Pass     string `json:"pass"`
	TraceID  uint64 `json:"trace_id"` // request number, 0 for set-up
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Async    bool   `json:"async"` // off the request's blocking path
}

// tracer keeps spans in memory until the replay ends. With on false a
// span only runs its function, so the two passes differ by tracing alone.
type tracer struct {
	on    bool
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

// span runs f inside a span and returns the span's duration (0 when
// tracing is off).
func (t *tracer) span(trace, parent uint64, name string, async bool, f func(id uint64)) time.Duration {
	if !t.on {
		f(0)
		return 0
	}
	id := t.ids.Add(1)
	start := time.Since(t.epoch)
	f(id)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{TraceID: trace, SpanID: id, ParentID: parent, Name: name,
		StartNS: int64(start), EndNS: int64(end), Async: async})
	t.mu.Unlock()
	return end - start
}

// spanWriter writes the spans of every traced workload to one file.
type spanWriter struct {
	f *os.File
	w *bufio.Writer
}

func createSpanWriter(path string) (*spanWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spanWriter{f: f, w: bufio.NewWriter(f)}, nil
}

func (s *spanWriter) write(workload, pass string, spans []spanRec) error {
	enc := json.NewEncoder(s.w)
	for i := range spans {
		spans[i].Workload, spans[i].Pass = workload, pass
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *spanWriter) close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// replayer models one workload's request pipeline in process by calling
// each layer's public function in the order ljqd and the client do, so a
// span can sit around every call. It is a model: trace.model_gap
// measures how far its blocking spans are from the real handler.
type replayer struct {
	w        *workload
	p        *pool
	dataDir  string // the durable cache of a pass
	prebuilt string // restart-1e5's pristine durable cache
	model    cost.Model
	method   core.Method
	warm     []*plancache.Entry // cache contents the e2e warm-up leaves

	// Per pass.
	tr       *tracer
	caches   []*plancache.Cache // one per daemon
	ring     *cluster.Ring
	peers    []string
	local    *plancache.Cache // the router's local rung
	store    *persist.Store
	snapMu   sync.Mutex
	upgrades chan upgradeJob
	upDone   sync.WaitGroup
	jsonBuf  bytes.Buffer
	jsonEnc  *json.Encoder
	handlers map[*plancache.Cache]http.Handler // a real serve.Server per cache
	// Over the requests that hit the cache: the summed blocking
	// server-side span time and the time in the real handler.
	server, handler time.Duration
}

type upgradeJob struct {
	trace, parent uint64
	cache         *plancache.Cache
	fp            fingerprint.Fingerprint
	cq            *catalog.Query
	incumbent     []catalog.RelID
}

// maxPendingUpgrades mirrors the daemon's upgrade backlog cap.
const maxPendingUpgrades = 1024

// replay runs the first replayRequests requests of the workload's fixed
// phase twice in process, spans off then on, writes the spans, and adds
// the per-span and trace-check metrics to r.
func replay(ctx context.Context, cfg *config, w *workload, seed int64, p *pool, r *runResult, spans *spanWriter) error {
	// The schedule's prefix does not depend on its length: ask for twice
	// the expected time of replayRequests arrivals.
	reqs := schedule(w, seed, phaseFixed, time.Duration(2*replayRequests/w.Rate*float64(time.Second)), w.Rate)
	reqs = reqs[:min(len(reqs), replayRequests)]
	m, err := core.ParseMethod("IAI")
	if err != nil {
		return err
	}
	rp := &replayer{w: w, p: p, model: cost.NewMemoryModel(), method: m,
		dataDir: filepath.Join(cfg.workdir, w.Name+"-replay"), prebuilt: filepath.Join(cfg.workdir, "prebuilt-"+w.Name)}
	if err := rp.buildWarm(ctx); err != nil {
		return err
	}
	off, _, err := rp.pass(ctx, false, reqs)
	if err != nil {
		return err
	}
	on, traced, err := rp.pass(ctx, true, reqs)
	if err != nil {
		return err
	}
	if err := spans.write(w.Name, "traced", traced); err != nil {
		return err
	}
	rp.report(r, traced, len(reqs))
	r.Metrics["trace.overhead_share"] = ratio(float64(on-off), float64(off))
	r.Metrics["trace.model_gap"] = ratio(float64(rp.handler-rp.server), float64(rp.handler))
	r.Notes = append(r.Notes, fmt.Sprintf(
		"replay: %d requests; spans off %v, on %v (overhead %.1f%%); on cache hits, blocking server spans %v vs handler %v (gap %.1f%%)",
		len(reqs), off.Round(time.Microsecond), on.Round(time.Microsecond), 100*r.Metrics["trace.overhead_share"],
		rp.server.Round(time.Microsecond), rp.handler.Round(time.Microsecond), 100*r.Metrics["trace.model_gap"]))
	return nil
}

// buildWarm computes, with the real serving code, the cache contents the
// e2e warm-up leaves behind: tier-2 plans for the pre-warmed pool or the
// prefilled head of the Zipf pool.
func (rp *replayer) buildWarm(ctx context.Context) error {
	n := rp.w.Prefill
	if rp.w.Prewarm {
		n = rp.w.Pool
	}
	if n == 0 {
		return nil
	}
	srv := serve.New(serve.Config{Tiered: true, Cache: plancache.Config{Capacity: max(4096, n)}})
	defer srv.StopUpgrades()
	for lo := 0; lo < n; lo += 512 {
		for s := lo; s < min(n, lo+512); s++ {
			if _, err := srv.OptimizeQuery(ctx, rp.p.query(int32(s))); err != nil {
				return err
			}
		}
		srv.WaitUpgrades()
	}
	rp.warm = srv.Cache().Dump()
	return nil
}

// pass replays reqs on a fresh copy of the warmed state and returns the
// summed time of the requests and, when traced, the spans. After every
// request that hit the cache, the same body goes through the real
// handler over the same cache, so model and handler are timed under the
// same conditions; both passes do it, so they differ by the spans alone.
func (rp *replayer) pass(ctx context.Context, on bool, reqs []request) (time.Duration, []spanRec, error) {
	rp.tr = &tracer{on: on, epoch: time.Now()}
	rp.server, rp.handler = 0, 0
	rp.jsonBuf.Reset()
	rp.jsonEnc = json.NewEncoder(&rp.jsonBuf)
	rp.jsonEnc.SetIndent("", "  ") // as the daemon's encoder
	rp.caches = nil
	capacity := 4096
	if rp.w.CacheSize > 0 {
		capacity = rp.w.CacheSize
	}
	rp.handlers = map[*plancache.Cache]http.Handler{}
	for i := 0; i < rp.w.Daemons; i++ {
		c := plancache.New(plancache.Config{Capacity: capacity, CostAware: true})
		rp.caches = append(rp.caches, c)
		srv := serve.New(serve.Config{CacheHandle: c, Tiered: true})
		defer srv.StopUpgrades()
		rp.handlers[c] = srv.Handler()
	}
	if rp.w.Routed {
		rp.peers = nil
		for i := 0; i < rp.w.Daemons; i++ {
			rp.peers = append(rp.peers, fmt.Sprintf("http://peer%d", i))
		}
		ring, err := cluster.NewRing(rp.peers, cluster.DefaultReplicas)
		if err != nil {
			return 0, nil, err
		}
		rp.ring = ring
		rp.local = plancache.New(plancache.Config{})
	}
	if err := rp.openStore(); err != nil {
		return 0, nil, err
	}
	for _, e := range rp.warm {
		rp.cacheFor(e.Fingerprint).Warm(e)
	}

	// Requests go out at their scheduled times, so background upgrades
	// keep the pace they keep in the daemon.
	rp.upgrades = make(chan upgradeJob, maxPendingUpgrades)
	rp.upDone.Add(1)
	go rp.upgradeWorker(ctx)
	var busy time.Duration
	begin := time.Now()
	for i, rq := range reqs {
		sleepUntil(begin.Add(rq.Due))
		q := rp.p.query(rq.Shape)
		t0 := time.Now()
		out, err := rp.request(ctx, uint64(i+1), q)
		busy += time.Since(t0)
		if err == nil && out.hit {
			var d time.Duration
			if d, err = rp.serveHTTP(out.cache, out.body); err == nil {
				rp.server += out.server
				rp.handler += d
			}
		}
		if err != nil {
			close(rp.upgrades)
			rp.upDone.Wait()
			return 0, nil, err
		}
	}
	close(rp.upgrades)
	rp.upDone.Wait()
	if rp.store != nil {
		if err := rp.store.Close(); err != nil {
			return 0, nil, err
		}
		rp.store = nil
	}
	return busy, rp.tr.spans, nil
}

// openStore opens the durable cache the way ljqd does at start:
// persist.Open, then every recovered entry warmed into the cache.
func (rp *replayer) openStore() error {
	if !rp.w.Durable {
		return nil
	}
	dir := rp.dataDir
	if rp.w.Prebuilt {
		if err := copyDir(rp.prebuilt, dir); err != nil {
			return err
		}
	} else if err := os.RemoveAll(dir); err != nil {
		return err
	}
	var entries []*plancache.Entry
	var err error
	rp.tr.span(0, 0, "persist.open", false, func(uint64) {
		rp.store, entries, _, err = persist.Open(persist.Options{Dir: dir})
	})
	if err != nil {
		return err
	}
	rp.tr.span(0, 0, "plancache.warm", false, func(uint64) {
		for _, e := range entries {
			rp.caches[0].Warm(e)
		}
	})
	return nil
}

// cacheFor is the cache of the daemon that owns fp.
func (rp *replayer) cacheFor(fp fingerprint.Fingerprint) *plancache.Cache {
	if rp.ring == nil {
		return rp.caches[0]
	}
	return rp.peerCache(rp.ring.Primary(fp))
}

func (rp *replayer) peerCache(peer string) *plancache.Cache {
	for i, p := range rp.peers {
		if p == peer {
			return rp.caches[i]
		}
	}
	panic("unknown peer " + peer)
}

// replayed is what the pass needs to know about one replayed request.
type replayed struct {
	hit    bool
	cache  *plancache.Cache
	body   []byte
	server time.Duration // blocking server-side span time
}

// request replays one request: the client, for the routed workload the
// router's fingerprint and ring lookup, the daemon's pipeline, and the
// journal writes a miss causes after the response.
func (rp *replayer) request(ctx context.Context, trace uint64, q *catalog.Query) (replayed, error) {
	tr := rp.tr
	var err error
	var out replayed
	var admitted *plancache.Entry
	var root uint64
	tr.span(trace, 0, "request", false, func(id uint64) {
		root = id
		tr.span(trace, id, "client.encode", false, func(uint64) { out.body, err = rp.encodeQuery(q) })
		if err != nil {
			return
		}
		cache := rp.caches[0]
		var rfp fingerprint.Fingerprint
		if rp.ring != nil {
			tr.span(trace, id, "fingerprint.canonical", false, func(uint64) { rfp, _ = fingerprint.Canonical(q) })
			var cands []string
			tr.span(trace, id, "cluster.ring", false, func(uint64) { cands = rp.ring.Successors(rfp, len(rp.peers)) })
			cache = rp.peerCache(cands[0])
		}
		out.cache = cache

		// The daemon: decode, fingerprint, cache or miss path, translate,
		// encode.
		var sq *catalog.Query
		decode := "qfile.decode"
		if rp.w.Wire {
			decode = "wire.decode"
		}
		out.server += tr.span(trace, id, decode, false, func(uint64) { sq, err = rp.decodeQuery(out.body) })
		if err != nil {
			return
		}
		var fp fingerprint.Fingerprint
		var order []catalog.RelID
		out.server += tr.span(trace, id, "fingerprint.canonical", false, func(uint64) { fp, order = fingerprint.Canonical(sq) })
		var ent *plancache.Entry
		var hit, shared bool
		out.server += tr.span(trace, id, "plancache.get_or_compute", false, func(gid uint64) {
			ent, hit, shared, err = cache.GetOrCompute(ctx, fp, func(ctx context.Context) (*plancache.Entry, error) {
				return rp.compute(ctx, trace, gid, cache, fp, sq, order)
			})
		})
		if err != nil {
			return
		}
		out.hit = hit
		if !hit && !shared {
			if cur, ok := cache.Peek(fp); ok && cur == ent {
				admitted = ent
			}
		}
		var resp *serve.OptimizeResponse
		out.server += tr.span(trace, id, "serve.translate", false, func(uint64) { resp = serve.ResponseFromEntry(sq, order, fp, ent) })
		var respBody []byte
		out.server += tr.span(trace, id, "serve.encode", false, func(uint64) { respBody, err = rp.encodeResponse(resp) })
		if err != nil {
			return
		}
		var cresp *serve.OptimizeResponse
		tr.span(trace, id, "client.decode", false, func(uint64) { cresp, err = rp.decodeResponse(respBody) })
		if err != nil {
			return
		}
		if rp.ring != nil {
			tr.span(trace, id, "cluster.read_repair", false, func(uint64) { rp.readRepair(rfp, cresp) })
		}
	})
	if err != nil {
		return out, err
	}
	if admitted != nil {
		// ljqd journals an admission after the response is released.
		rp.journal(trace, root, out.cache, admitted)
	}
	return out, nil
}

// compute is the tiered miss path: relabel, greedy plan, and either a
// background upgrade or, for an escalated plan, the full search in line.
func (rp *replayer) compute(ctx context.Context, trace, parent uint64, cache *plancache.Cache, fp fingerprint.Fingerprint, q *catalog.Query, order []catalog.RelID) (*plancache.Entry, error) {
	tr := rp.tr
	var cq *catalog.Query
	tr.span(trace, parent, "fingerprint.relabel", false, func(uint64) { cq = fingerprint.Relabel(q, order) })
	var res *greedy.Result
	var err error
	tr.span(trace, parent, "greedy.plan", false, func(uint64) {
		var g *greedy.Planner
		if g, err = greedy.New(cq.Clone(), rp.model); err == nil {
			res = g.Plan()
		}
	})
	if err != nil || greedy.Escalate(res.TotalCost, greedy.DefaultThreshold) {
		var e *plancache.Entry
		tr.span(trace, parent, "core.search", false, func(uint64) { e, err = rp.search(ctx, fp, cq, nil) })
		return e, err
	}
	pl := res.ToPlan()
	select {
	case rp.upgrades <- upgradeJob{trace: trace, parent: parent, cache: cache, fp: fp, cq: cq, incumbent: pl.Order()}:
	default: // backlog full: the daemon drops the upgrade too
	}
	return &plancache.Entry{Fingerprint: fp, Plan: pl, BudgetUsed: res.Work, Tier: plancache.TierGreedy}, nil
}

// search runs the full anytime search as ljqd's tier 2 does.
func (rp *replayer) search(ctx context.Context, fp fingerprint.Fingerprint, cq *catalog.Query, incumbent []catalog.RelID) (*plancache.Entry, error) {
	n := max(1, len(cq.Relations)-1)
	budget := cost.NewBudget(cost.UnitsFor(9, n))
	opt, err := core.NewOptimizer(cq.Clone(), rp.model, budget, rand.New(rand.NewSource(1)), core.Options{Incumbent: incumbent})
	if err != nil {
		return nil, err
	}
	pl, _ := opt.RunContext(ctx, rp.method)
	if pl == nil || pl.Degraded {
		return nil, fmt.Errorf("full search of %s degraded", fp.Short())
	}
	return &plancache.Entry{Fingerprint: fp, Plan: pl, BudgetUsed: budget.Used(), Tier: plancache.TierFull}, nil
}

func (rp *replayer) upgradeWorker(ctx context.Context) {
	defer rp.upDone.Done()
	for job := range rp.upgrades {
		var e *plancache.Entry
		var err error
		rp.tr.span(job.trace, job.parent, "core.search", true, func(uint64) {
			e, err = rp.search(ctx, job.fp, job.cq, job.incumbent)
		})
		if err == nil && job.cache.Put(e) {
			rp.journal(job.trace, job.parent, job.cache, e)
		}
	}
}

// journal appends an admitted entry and compacts every 256 appends, as
// the daemon's persist.Manager does. No-op without a durable cache.
func (rp *replayer) journal(trace, parent uint64, cache *plancache.Cache, e *plancache.Entry) {
	if rp.store == nil {
		return
	}
	var since int
	rp.tr.span(trace, parent, "persist.append", true, func(uint64) { since, _ = rp.store.Append(e) })
	if since >= 256 {
		rp.snapMu.Lock()
		rp.tr.span(trace, parent, "persist.snapshot", true, func(uint64) { _ = rp.store.Snapshot(cache.Dump()) })
		rp.snapMu.Unlock()
	}
}

// readRepair is the router's comparison of a routed response with its
// local rung's cache entry.
func (rp *replayer) readRepair(fp fingerprint.Fingerprint, resp *serve.OptimizeResponse) bool {
	ent, ok := rp.local.Peek(fp)
	if !ok {
		return false
	}
	lt, rt := plancache.TierRank(ent.Tier), uint8(resp.Tier)
	return lt > rt || (lt == rt && ent.Plan.TotalCost < resp.TotalCost)
}

func (rp *replayer) encodeQuery(q *catalog.Query) ([]byte, error) {
	if rp.w.Wire {
		return wire.EncodeQuery(q), nil
	}
	var b bytes.Buffer
	err := qfile.Write(&b, q)
	return b.Bytes(), err
}

func (rp *replayer) decodeQuery(body []byte) (*catalog.Query, error) {
	if rp.w.Wire {
		return wire.DecodeQuery(body)
	}
	return qfile.ReadLimit(bufio.NewReader(bytes.NewReader(body)), 1<<20)
}

func (rp *replayer) encodeResponse(r *serve.OptimizeResponse) ([]byte, error) {
	if rp.w.Wire {
		return wire.EncodeResponse(&wire.Response{
			Fingerprint: r.Fingerprint, CacheHit: r.CacheHit, Coalesced: r.Coalesced,
			Degraded: r.Degraded, DegradeReason: r.DegradeReason, BudgetUsed: r.BudgetUsed,
			TotalCost: r.TotalCost, Order: r.Order, Names: r.Names, Tier: r.Tier, Explain: r.Explain,
		}), nil
	}
	rp.jsonBuf.Reset()
	err := rp.jsonEnc.Encode(r)
	return rp.jsonBuf.Bytes(), err
}

func (rp *replayer) decodeResponse(b []byte) (*serve.OptimizeResponse, error) {
	if rp.w.Wire {
		wr, err := wire.DecodeResponse(b)
		if err != nil {
			return nil, err
		}
		return &serve.OptimizeResponse{Fingerprint: wr.Fingerprint, TotalCost: wr.TotalCost, Order: wr.Order, Tier: wr.Tier}, nil
	}
	var r serve.OptimizeResponse
	return &r, json.Unmarshal(b, &r)
}

// serveHTTP times body through the real handler over cache.
func (rp *replayer) serveHTTP(cache *plancache.Cache, body []byte) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
	if rp.w.Wire {
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
	}
	rec := httptest.NewRecorder()
	begin := time.Now()
	rp.handlers[cache].ServeHTTP(rec, req)
	d := time.Since(begin)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
	}
	return d, nil
}

// report turns the traced pass's spans into per-span self time and call
// counts, prints the span table and stores the per-layer metrics.
func (rp *replayer) report(r *runResult, spans []spanRec, requests int) {
	children := map[uint64]int64{} // covered time per parent span
	for _, s := range spans {
		if s.ParentID != 0 && !s.Async {
			children[s.ParentID] += s.EndNS - s.StartNS
		}
	}
	type agg struct {
		calls int
		self  int64
		async bool
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.calls++
		a.self += s.EndNS - s.StartNS - children[s.SpanID]
		a.async = a.async || s.Async
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%-26s %8s %10s %12s %10s", "span", "calls", "calls/req", "self total", "self/req"))
	for _, n := range spanNames {
		a := by[n]
		if a == nil {
			a = &agg{}
		}
		perReq := float64(a.self) / 1e3 / float64(requests)
		tag := ""
		if a.async {
			tag = " async"
		}
		r.Notes = append(r.Notes, fmt.Sprintf("%-26s %8d %10.4f %12v %8.3fus%s",
			n, a.calls, float64(a.calls)/float64(requests), time.Duration(a.self).Round(time.Microsecond), perReq, tag))
		r.Metrics[n+".self_us"] = perReq
		r.Metrics[n+".calls_per_req"] = float64(a.calls) / float64(requests)
	}
}
