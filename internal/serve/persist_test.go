package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"joinopt/internal/persist"
	"joinopt/internal/plancache"
	"joinopt/internal/vfs"
	"joinopt/internal/workload"
)

// newHTTPServer serves an already-built Server (newTestServer builds
// its own; the durability tests construct the cache/manager wiring
// themselves).
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getStatus fetches and decodes /statusz.
func getStatus(t *testing.T, url string) StatusResponse {
	t.Helper()
	resp, err := http.Get(url + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statusz = %d", resp.StatusCode)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRetryAfterRoundsUp is the regression for the serialized-zero
// bug: a sub-second shed hint must round UP to 1, never down to 0 —
// "Retry-After: 0" tells a client to hammer an overloaded server.
func TestRetryAfterRoundsUp(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{400 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1400 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{0, "1"},
		{-time.Second, "1"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestLivenessVsReadiness pins the health-split contract: liveness
// answers 200 while the process runs; readiness flips with SetReady
// (RunDaemon lowers it when a drain begins) without touching liveness.
func TestLivenessVsReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	for _, p := range []string{"/healthz", "/livez", "/readyz"} {
		if code := get(p); code != http.StatusOK {
			t.Fatalf("GET %s = %d at startup, want 200", p, code)
		}
	}

	s.SetReady(false)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz = %d while not ready, want 503", code)
	}
	for _, p := range []string{"/healthz", "/livez"} {
		if code := get(p); code != http.StatusOK {
			t.Fatalf("GET %s = %d while not ready, want 200 (liveness is not readiness)", p, code)
		}
	}

	s.SetReady(true)
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("GET /readyz = %d after SetReady(true), want 200", code)
	}
}

// TestReadinessShedWindow: after the limiter sheds, /readyz answers
// 503 (with a nonzero Retry-After) until the window passes.
func TestReadinessShedWindow(t *testing.T) {
	s, ts := newTestServer(t, Config{ReadinessShedWindow: 100 * time.Millisecond})
	// Record a shed the way handleOptimize does.
	s.lastShedNano.Store(time.Now().UnixNano())

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz = %d inside shed window, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q inside shed window, want >= 1", ra)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz still 503 long after the shed window elapsed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// persistentServer builds a Server whose cache is durably backed by a
// store over fs. Returns the server and its manager.
func persistentServer(t *testing.T, fs vfs.FS) (*Server, *persist.Manager) {
	t.Helper()
	store, entries, rstats, err := persist.Open(persist.Options{Dir: "cache", FS: fs})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	cache := plancache.New(plancache.Config{Capacity: 1024})
	mgr := persist.NewManager(store, cache, 64)
	mgr.Recover(entries, rstats)
	mgr.Bind()
	s := New(Config{TCoeff: 1, CacheHandle: cache, Persist: mgr})
	return s, mgr
}

// waitAppend waits, for at most ten seconds, until mgr has journaled an
// entry. A miss response can reach the client before its admission is
// journaled: plancache.finish closes the flight's done channel and only
// then fires the OnAdmit hook, which keeps the append (and its fsync)
// off the miss path. Tests that count appends right after a response
// wait here first; their assertions still fail if the append never
// comes.
func waitAppend(mgr *persist.Manager) {
	for deadline := time.Now().Add(10 * time.Second); mgr.Stats().Appends == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// TestRestartServesByteIdenticalPlan is the end-to-end durability
// contract: optimize, flush, "restart" (new server over the same
// directory), and the same query is a cache hit with byte-identical
// Explain and bit-identical cost — the t·N² search is paid exactly
// once across process lifetimes.
func TestRestartServesByteIdenticalPlan(t *testing.T) {
	mem := vfs.NewMem()
	q := workload.Default().Generate(18, rand.New(rand.NewSource(5)))
	body := queryBody(t, q)

	s1, mgr1 := persistentServer(t, mem)
	ts1 := newHTTPServer(t, s1)
	resp1, out1 := postOptimize(t, ts1.URL, body)
	if resp1.StatusCode != http.StatusOK || out1.CacheHit {
		t.Fatalf("first POST: status %d, hit=%v", resp1.StatusCode, out1.CacheHit)
	}
	waitAppend(mgr1)
	// Graceful shutdown: flush the snapshot and close the store.
	if err := mgr1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := mgr1.Stats()
	if st.Appends == 0 {
		t.Fatal("the admitted plan was never journaled")
	}

	// "Restart": recover a brand-new server over the same directory.
	s2, mgr2 := persistentServer(t, mem)
	if rec := mgr2.Recovery(); rec.Recovered == 0 {
		t.Fatalf("recovery found nothing: %+v", rec)
	}
	ts2 := newHTTPServer(t, s2)
	resp2, out2 := postOptimize(t, ts2.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-restart POST: status %d", resp2.StatusCode)
	}
	if !out2.CacheHit {
		t.Fatal("post-restart POST must hit the recovered cache")
	}
	if out2.Fingerprint != out1.Fingerprint {
		t.Fatalf("fingerprint drifted across restart: %s != %s", out2.Fingerprint, out1.Fingerprint)
	}
	if out2.Explain != out1.Explain {
		t.Fatalf("explain not byte-identical across restart:\n--- before\n%s\n--- after\n%s", out1.Explain, out2.Explain)
	}
	if math.Float64bits(out2.TotalCost) != math.Float64bits(out1.TotalCost) {
		t.Fatalf("total cost not bit-identical across restart: %x != %x",
			math.Float64bits(out2.TotalCost), math.Float64bits(out1.TotalCost))
	}
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStatuszReportsPersist: with a durability manager bound, /statusz
// carries the recovery and journal counters.
func TestStatuszReportsPersist(t *testing.T) {
	mem := vfs.NewMem()
	s, mgr := persistentServer(t, mem)
	ts := newHTTPServer(t, s)
	q := workload.Default().Generate(6, rand.New(rand.NewSource(3)))
	if resp, _ := postOptimize(t, ts.URL, queryBody(t, q)); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	waitAppend(mgr)
	st := getStatus(t, ts.URL)
	if st.Persist == nil {
		t.Fatal("statusz.persist missing with a bound manager")
	}
	if st.Persist.Appends == 0 {
		t.Fatalf("statusz.persist.journalAppends = 0 after an admission: %+v", st.Persist)
	}
	if !st.Ready {
		t.Fatal("statusz.ready = false on a serving daemon")
	}
}
