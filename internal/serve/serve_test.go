package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/core"
	"joinopt/internal/plancache"
	"joinopt/internal/qfile"
	"joinopt/internal/telemetry"
	"joinopt/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.TCoeff == 0 {
		cfg.TCoeff = 1 // keep tests fast
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func queryBody(t *testing.T, q *catalog.Query) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := qfile.Write(&buf, q); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postOptimize(t *testing.T, url string, body []byte) (*http.Response, OptimizeResponse) {
	t.Helper()
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out OptimizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestSmokeEndToEnd is the CI smoke contract: POST a 20-join query
// twice; the second response is a cache hit with byte-identical plan
// Explain output.
func TestSmokeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	body := queryBody(t, q)

	resp1, out1 := postOptimize(t, ts.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: status %d", resp1.StatusCode)
	}
	if out1.CacheHit {
		t.Fatal("first POST must be a miss")
	}
	if out1.Fingerprint == "" || out1.Explain == "" || len(out1.Order) != 21 {
		t.Fatalf("first response incomplete: %+v", out1)
	}
	if out1.BudgetUsed <= 0 {
		t.Fatalf("budgetUsed = %d, want > 0", out1.BudgetUsed)
	}

	resp2, out2 := postOptimize(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: status %d", resp2.StatusCode)
	}
	if !out2.CacheHit {
		t.Fatal("second POST must be a cache hit")
	}
	if out2.Fingerprint != out1.Fingerprint {
		t.Fatalf("fingerprint drifted: %s != %s", out2.Fingerprint, out1.Fingerprint)
	}
	if out2.Explain != out1.Explain {
		t.Fatalf("explain not byte-identical:\n--- first\n%s\n--- second\n%s", out1.Explain, out2.Explain)
	}
	if out2.TotalCost != out1.TotalCost {
		//ljqlint:allow floatsafe -- test file (out of lint scope anyway): cached plans must reproduce bit-identical costs
		t.Fatalf("total cost drifted: %g != %g", out2.TotalCost, out1.TotalCost)
	}
}

// TestRelabeledQueryHits: a query isomorphic up to RelID permutation
// (names moving with their relations) fingerprints identically, hits
// the cache, and yields identical Explain output — one optimizer run
// serves both labelings.
func TestRelabeledQueryHits(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(9))
	q := workload.Default().Generate(15, rng)

	perm := rng.Perm(len(q.Relations))
	qp := &catalog.Query{
		Relations:  make([]catalog.Relation, len(q.Relations)),
		Predicates: make([]catalog.Predicate, len(q.Predicates)),
	}
	for old, rel := range q.Relations {
		r := rel
		r.Selections = append([]catalog.Selection(nil), rel.Selections...)
		qp.Relations[perm[old]] = r
	}
	for i, p := range q.Predicates {
		np := p
		np.Left = catalog.RelID(perm[p.Left])
		np.Right = catalog.RelID(perm[p.Right])
		np.Normalize()
		qp.Predicates[i] = np
	}
	rng.Shuffle(len(qp.Predicates), func(a, b int) {
		qp.Predicates[a], qp.Predicates[b] = qp.Predicates[b], qp.Predicates[a]
	})

	resp1, out1 := postOptimize(t, ts.URL, queryBody(t, q))
	resp2, out2 := postOptimize(t, ts.URL, queryBody(t, qp))
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if out1.Fingerprint != out2.Fingerprint {
		t.Fatalf("isomorphic queries fingerprinted differently:\n%s\n%s", out1.Fingerprint, out2.Fingerprint)
	}
	if out1.CacheHit || !out2.CacheHit {
		t.Fatalf("want miss-then-hit, got %v then %v", out1.CacheHit, out2.CacheHit)
	}
	if out1.Explain != out2.Explain {
		t.Fatalf("explain differs across relabeling:\n--- A\n%s\n--- B\n%s", out1.Explain, out2.Explain)
	}
	st := s.Cache().Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 miss and 1 hit", st)
	}
}

// TestOversizedBody413: the serve boundary's size cap answers
// oversized bodies with 413, for both input formats.
func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 200})
	q := workload.Default().Generate(20, rand.New(rand.NewSource(1)))
	body := queryBody(t, q) // far larger than 200 bytes
	resp, _ := postOptimize(t, ts.URL, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("JSON: status %d, want 413", resp.StatusCode)
	}

	var dsl strings.Builder
	dsl.WriteString("relation a 100\nrelation b 100\njoin a b selectivity 0.1\n")
	for dsl.Len() <= 200 {
		dsl.WriteString("# padding comment to push the body over the cap\n")
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize?format=dsl",
		strings.NewReader(dsl.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("DSL: status %d, want 413", resp2.StatusCode)
	}
}

// TestDSLBody: the textual DSL is accepted via ?format=dsl.
func TestDSLBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dsl := "relation orders 10000\nrelation customers 500\nrelation nation 25\n" +
		"join orders customers distinct 500 500\njoin customers nation selectivity 0.04\n"
	resp, err := http.Post(ts.URL+"/optimize?format=dsl", "text/x-qdsl", strings.NewReader(dsl))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var out OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Names) != 3 {
		t.Fatalf("names = %v, want 3 relations", out.Names)
	}
}

// TestMalformedBody400: garbage is a client error, not a crash.
func TestMalformedBody400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postOptimize(t, ts.URL, []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	respGet, err := http.Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	respGet.Body.Close()
	if respGet.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", respGet.StatusCode)
	}
}

// TestConcatenatedQueries400: a body holding two queries is refused,
// not answered with a plan for the first one.
func TestConcatenatedQueries400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := queryBody(t, workload.Default().Generate(4, rand.New(rand.NewSource(1))))
	if resp, _ := postOptimize(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("one query: status %d, want 200", resp.StatusCode)
	}
	two := append(append([]byte(nil), body...), body...)
	if resp, _ := postOptimize(t, ts.URL, two); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("two queries: status %d, want 400", resp.StatusCode)
	}
}

// TestLoadShedding503: with the limiter saturated, requests are shed
// after the queue deadline with 503 + Retry-After, and served again
// once capacity frees up.
func TestLoadShedding503(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxInFlightJoins: 1,
		QueueTimeout:     30 * time.Millisecond,
	})
	// Saturate the limiter directly (the handler path would race the
	// test's timing).
	if err := s.sem.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	q := workload.Default().Generate(8, rand.New(rand.NewSource(2)))
	resp, _ := postOptimize(t, ts.URL, queryBody(t, q))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}
	s.sem.Release(1)
	resp2, out := postOptimize(t, ts.URL, queryBody(t, q))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d, want 200", resp2.StatusCode)
	}
	if out.Explain == "" {
		t.Fatal("empty plan after release")
	}
}

// TestConcurrentDuplicatesCoalesce: N concurrent requests for the same
// shape trigger exactly one optimizer run.
func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{TCoeff: 3})
	q := workload.Default().Generate(25, rand.New(rand.NewSource(5)))
	body := queryBody(t, q)

	const clients = 16
	var wg sync.WaitGroup
	results := make([]OptimizeResponse, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("client %d panicked: %v", i, r)
				}
				wg.Done()
			}()
			resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&results[i]); err != nil {
					t.Errorf("client %d: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()

	explains := map[string]int{}
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		explains[results[i].Explain]++
	}
	if len(explains) != 1 {
		t.Fatalf("clients saw %d distinct plans, want 1", len(explains))
	}
	st := s.Cache().Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if st.Hits+st.Coalesced != clients-1 {
		t.Fatalf("hits(%d)+coalesced(%d) = %d, want %d",
			st.Hits, st.Coalesced, st.Hits+st.Coalesced, clients-1)
	}
}

// TestStatusz: the status endpoint reports sane JSON.
func TestStatusz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := workload.Default().Generate(6, rand.New(rand.NewSource(3)))
	postOptimize(t, ts.URL, queryBody(t, q))
	postOptimize(t, ts.URL, queryBody(t, q))

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss / 1 hit", st.Cache)
	}
	if st.Optimizations != 1 {
		t.Fatalf("optimizations = %d, want 1", st.Optimizations)
	}
	if st.CapacityJoins <= 0 || st.UptimeSeconds < 0 {
		t.Fatalf("implausible status: %+v", st)
	}

	respHealth, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	respHealth.Body.Close()
	if respHealth.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", respHealth.StatusCode)
	}
}

// TestDegradedNotCached: a request whose deadline truncates the run
// gets a degraded plan, and that plan is not admitted to the cache.
func TestDegradedNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{
		TCoeff:         1e9, // effectively unbounded unit budget...
		RequestTimeout: 30 * time.Millisecond,
	})
	q := workload.Default().Generate(40, rand.New(rand.NewSource(8)))
	resp, out := postOptimize(t, ts.URL, queryBody(t, q))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (anytime contract)", resp.StatusCode)
	}
	if !out.Degraded {
		t.Skip("optimizer finished under 30ms; cannot exercise degradation here")
	}
	if s.Cache().Len() != 0 {
		t.Fatal("degraded plan was cached")
	}
}

// TestSemaphore covers the limiter directly: FIFO grants, ctx-aware
// waits, clamping.
func TestSemaphore(t *testing.T) {
	sem := newSemaphore(4)
	ctx := context.Background()
	if err := sem.Acquire(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if sem.InUse() != 3 {
		t.Fatalf("in use = %d", sem.InUse())
	}
	// Oversized request clamps to capacity rather than deadlocking.
	done := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		done <- sem.Acquire(ctx, 99)
	}()
	select {
	case err := <-done:
		t.Fatalf("clamped acquire should wait for release, got %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	sem.Release(3)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if sem.InUse() != 4 {
		t.Fatalf("in use = %d, want clamped 4", sem.InUse())
	}
	// A waiter with an expired context returns promptly.
	expired, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	if err := sem.Acquire(expired, 1); err == nil {
		t.Fatal("acquire should fail under an expired context")
	}
	sem.Release(4)
	if sem.InUse() != 0 || sem.Waiting() != 0 {
		t.Fatalf("leaked capacity: inUse=%d waiting=%d", sem.InUse(), sem.Waiting())
	}
}

// BenchmarkOptimizeCacheHit measures the full handler path on the hot
// (cached) path: decode → fingerprint → cache hit → translate → encode.
func BenchmarkOptimizeCacheHit(b *testing.B) {
	s := New(Config{TCoeff: 1})
	q := workload.Default().Generate(20, rand.New(rand.NewSource(4)))
	var buf bytes.Buffer
	if err := qfile.Write(&buf, q); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	h := s.Handler()
	warm := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
	h.ServeHTTP(httptest.NewRecorder(), warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkOptimizeMiss prices the cold path end to end (small query,
// small budget) for comparison with the hit path, searching with IAI
// as ljqd does.
func BenchmarkOptimizeMiss(b *testing.B) {
	q := workload.Default().Generate(10, rand.New(rand.NewSource(6)))
	var buf bytes.Buffer
	if err := qfile.Write(&buf, q); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Config{Method: core.IAI, TCoeff: 1, CacheHandle: plancache.New(plancache.Config{Capacity: 8})})
		h := s.Handler()
		b.StartTimer()
		req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// TestMetricsEndpoint is the observability smoke contract (CI's
// ljqd-smoke job scrapes the live daemon the same way): with
// Config.Metrics set, GET /metrics serves Prometheus text exposition
// containing the core server and cache series, and the counters move
// with traffic.
func TestMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg})

	// Without traffic the gauges exist but counters are zero.
	q := workload.Default().Generate(12, rand.New(rand.NewSource(7)))
	body := queryBody(t, q)
	if resp, _ := postOptimize(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: status %d", resp.StatusCode)
	}
	if resp, _ := postOptimize(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize (hit): status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for _, series := range []string{
		"ljq_optimizations_total 1",
		"ljq_plancache_hits_total 1",
		"ljq_plancache_misses_total 1",
		"ljq_plancache_entries 1",
		"ljq_shed_total 0",
		"ljq_optimize_budget_used_units_count 1",
		"ljq_inflight_requests 0",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q\n----\n%s", series, text)
		}
	}
	if !strings.Contains(text, "# TYPE ljq_optimize_budget_used_units histogram") {
		t.Errorf("/metrics missing histogram TYPE line\n----\n%s", text)
	}
}

// TestMetricsDisabled: without Config.Metrics the endpoint is not
// routed at all.
func TestMetricsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics without registry: status %d, want 404", resp.StatusCode)
	}
}
