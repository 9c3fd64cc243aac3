package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"joinopt/internal/workload"
)

// TestCoalescedWaitersShareDegradedFlight: duplicates of a query whose
// search the request deadline truncates, arriving while its flight
// runs, all answer 200 with the leader's degraded plan: one optimizer
// run, the waiters reported coalesced, and the degraded plan kept out
// of the cache. The leader's RequestTimeout resolves the flight; the
// waiters join it a few milliseconds in, as duplicates of a running
// search do, so no waiter's own deadline could end before it.
func TestCoalescedWaitersShareDegradedFlight(t *testing.T) {
	s := New(Config{
		TCoeff:         1e9, // the search never finishes on its own...
		RequestTimeout: 50 * time.Millisecond,
	})
	h := s.Handler()
	body := queryBody(t, workload.Default().Generate(40, rand.New(rand.NewSource(8))))

	const clients = 4
	recs := make([]*httptest.ResponseRecorder, clients)
	var wg sync.WaitGroup
	post := func(rec *httptest.ResponseRecorder) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
		}()
	}
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		post(recs[i])
		if i == 0 {
			waitFor(t, func() bool { return s.Cache().Stats().InFlight == 1 })
			time.Sleep(10 * time.Millisecond)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coalesced requests hung past the leader's deadline")
	}

	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var out OptimizeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if !out.Degraded || out.CacheHit || out.Coalesced != (i > 0) {
			t.Fatalf("client %d: degraded=%v cacheHit=%v coalesced=%v, want the leader's degraded plan, coalesced for every waiter",
				i, out.Degraded, out.CacheHit, out.Coalesced)
		}
	}
	if n := s.optimizes.Load(); n != 1 {
		t.Fatalf("optimizer runs = %d, want 1", n)
	}
	if st := s.Cache().Stats(); st.Coalesced != clients-1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss and %d coalesced", st, clients-1)
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("cache holds %d entries, want the degraded plan refused", n)
	}
}

// TestCoalescedWaiterHonorsOwnContext: a waiter whose own context ends
// returns at once with the context's error, while the flight it joined
// runs on to the leader's deadline.
func TestCoalescedWaiterHonorsOwnContext(t *testing.T) {
	s := New(Config{TCoeff: 1e9, RequestTimeout: time.Second})
	q := workload.Default().Generate(40, rand.New(rand.NewSource(8)))

	leader := make(chan error, 1)
	go func() {
		_, err := s.OptimizeQuery(context.Background(), q)
		leader <- err
	}()
	waitFor(t, func() bool { return s.Cache().Stats().InFlight == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := s.OptimizeQuery(ctx, q)
		waiter <- err
	}()
	waitFor(t, func() bool { return s.Cache().Stats().Coalesced == 1 })
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("cancelled waiter still waiting on the leader's flight")
	}
	select {
	case <-leader:
		t.Fatal("the leader's flight ended with its waiter")
	default:
	}
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
