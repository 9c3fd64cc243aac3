package serve

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"joinopt/internal/faultinject"
	"joinopt/internal/persist"
	"joinopt/internal/vfs"
	"joinopt/internal/workload"
)

// gate is middleware that parks /optimize requests between "started"
// and "release": the drain test needs a request provably in flight
// when the shutdown signal lands.
type gate struct {
	next    http.Handler
	started chan struct{}
	release chan struct{}
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/optimize" {
		g.started <- struct{}{}
		<-g.release
	}
	g.next.ServeHTTP(w, r)
}

// TestDaemonDrainOrdering pins the shutdown sequence a load-balanced
// deployment needs: signal → readiness false + listener closed (new
// connections refused) → in-flight request completes 200 → plan cache
// snapshot flushed → RunDaemon returns nil (exit 0).
func TestDaemonDrainOrdering(t *testing.T) {
	mem := vfs.NewMem()
	srv, mgr := persistentServer(t, mem)
	g := &gate{
		next:    srv.Handler(),
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}

	addrCh := make(chan net.Addr, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunDaemon(ctx, DaemonConfig{
			Server:   srv,
			Addr:     "127.0.0.1:0",
			Handler:  g,
			Grace:    10 * time.Second,
			OnListen: func(a net.Addr) { addrCh <- a },
		})
	}()
	addr := (<-addrCh).String()
	base := "http://" + addr

	// Launch the in-flight request; wait until it is inside the gate.
	q := workload.Default().Generate(8, rand.New(rand.NewSource(2)))
	body := queryBody(t, q)
	reqDone := make(chan *http.Response, 1)
	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			reqErr <- err
			return
		}
		reqDone <- resp
	}()
	<-g.started

	// Signal shutdown while the request is parked.
	cancel()

	// The listener must close: new connections get refused. (Poll; the
	// Shutdown goroutine races us by a few scheduler ticks.)
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			break
		}
		_ = conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting long after shutdown signal")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The in-flight request has NOT been aborted, and RunDaemon is
	// still draining.
	select {
	case err := <-reqErr:
		t.Fatalf("in-flight request aborted during drain: %v", err)
	case <-done:
		t.Fatal("RunDaemon returned before the in-flight request finished")
	case <-time.After(50 * time.Millisecond):
	}

	// Snapshot must not have been flushed yet: the drain-then-flush
	// order puts the final requests' plans in the snapshot.
	preFlush := mgr.Stats().Snapshots

	// Release the parked request: it must complete 200.
	close(g.release)
	select {
	case resp := <-reqDone:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drained request status %d, want 200", resp.StatusCode)
		}
		_ = resp.Body.Close()
	case err := <-reqErr:
		t.Fatalf("drained request failed: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("released request never completed")
	}

	// RunDaemon finishes cleanly (exit 0) and flushed after the drain.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunDaemon = %v, want nil on clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunDaemon never returned")
	}
	if got := mgr.Stats().Snapshots; got <= preFlush {
		t.Fatalf("snapshots = %d, want > %d (final flush after drain)", got, preFlush)
	}

	// The flushed snapshot holds the drained request's plan: a fresh
	// recovery over the directory finds it.
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	store, entries, _, err := persist.Open(persist.Options{Dir: "cache", FS: mem})
	if err != nil {
		t.Fatalf("recovery after drain: %v", err)
	}
	defer store.Close()
	if len(entries) == 0 {
		t.Fatal("drained plan missing from the flushed snapshot")
	}
}

// TestDaemonCrashMidFinalFlush: the disk dies during the shutdown
// snapshot. RunDaemon must surface the error — and the previous
// snapshot + journal must still recover every admitted plan, because
// the snapshot protocol never destroys the old state before the new
// state is published.
func TestDaemonCrashMidFinalFlush(t *testing.T) {
	mem := vfs.NewMem()
	ffs := faultinject.NewFaultFS(mem, faultinject.FSConfig{})
	srv, mgr := persistentServer(t, ffs)

	addrCh := make(chan net.Addr, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunDaemon(ctx, DaemonConfig{
			Server:   srv,
			Addr:     "127.0.0.1:0",
			Grace:    10 * time.Second,
			OnListen: func(a net.Addr) { addrCh <- a },
		})
	}()
	base := "http://" + (<-addrCh).String()

	// Admit one plan while the disk is healthy (journaled durably).
	q := workload.Default().Generate(8, rand.New(rand.NewSource(2)))
	resp, err := http.Post(base+"/optimize", "application/json", bytes.NewReader(queryBody(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d", resp.StatusCode)
	}
	waitAppend(mgr)
	if mgr.Stats().Appends == 0 {
		t.Fatal("plan was not journaled before the crash window")
	}

	// Pull the plug on the next mutating operation — the final flush's
	// snapshot temp-file create.
	ffs.Reset(faultinject.FSConfig{Seed: 1, CrashAtOp: 1})
	cancel()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunDaemon = nil, want the flush failure surfaced")
		}
		if !errors.Is(err, faultinject.ErrCrashed) && !strings.Contains(err.Error(), "crash") {
			t.Fatalf("RunDaemon error %v does not carry the injected crash", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunDaemon never returned")
	}

	// Reboot over the raw bytes: the journaled plan survives the
	// failed final flush.
	store, entries, rstats, err := persist.Open(persist.Options{Dir: "cache", FS: mem})
	if err != nil {
		t.Fatalf("recovery after crash-mid-flush: %v", err)
	}
	defer store.Close()
	if rstats.Recovered == 0 || len(entries) == 0 {
		t.Fatalf("admitted plan lost by crash-mid-flush: %+v", rstats)
	}
}

// TestDaemonListenError: a bad address fails fast with a useful error.
func TestDaemonListenError(t *testing.T) {
	srv := New(Config{TCoeff: 1})
	err := RunDaemon(context.Background(), DaemonConfig{Server: srv, Addr: "256.0.0.1:-1"})
	if err == nil {
		t.Fatal("RunDaemon on an unusable address = nil, want error")
	}
}

// TestDaemonRequiresServer: misuse is an error, not a panic.
func TestDaemonRequiresServer(t *testing.T) {
	if err := RunDaemon(context.Background(), DaemonConfig{}); err == nil {
		t.Fatal("RunDaemon without a Server = nil, want error")
	}
}
