package cluster

import (
	"context"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"joinopt/internal/client"
	"joinopt/internal/faultinject"
	"joinopt/internal/fingerprint"
	"joinopt/internal/persist"
	"joinopt/internal/plancache"
	"joinopt/internal/serve"
	"joinopt/internal/workload"
)

// benchCluster builds a 3-peer in-process cluster for routing
// benchmarks.
func benchCluster(b *testing.B) (*Router, *faultinject.ClusterTransport) {
	b.Helper()
	peers := []string{"http://peer0", "http://peer1", "http://peer2"}
	handlers := map[string]http.Handler{}
	for _, p := range peers {
		handlers[strings.TrimPrefix(p, "http://")] = serve.New(serve.Config{TCoeff: 1, Seed: 1}).Handler()
	}
	ct := faultinject.NewClusterTransport(handlers, nil)
	r, err := NewRouter(RouterConfig{
		Peers:  peers,
		Client: client.Config{Transport: ct, MaxAttempts: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	return r, ct
}

// BenchmarkClusterRouteHit measures a full routed round trip for a
// warm shape: ring lookup, peer client, HTTP encode/decode, cache hit.
func BenchmarkClusterRouteHit(b *testing.B) {
	r, _ := benchCluster(b)
	ctx := context.Background()
	q := workload.Default().Generate(12, rand.New(rand.NewSource(7)))
	if _, err := r.Optimize(ctx, q); err != nil { // warm the primary
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := r.Optimize(ctx, q)
		if err != nil || !resp.CacheHit {
			b.Fatalf("err=%v hit=%v", err, resp != nil && resp.CacheHit)
		}
	}
}

// BenchmarkClusterFailover measures the same round trip with a dead
// primary: one refused dispatch, then the ring successor serves.
func BenchmarkClusterFailover(b *testing.B) {
	r, ct := benchCluster(b)
	ctx := context.Background()
	q := workload.Default().Generate(12, rand.New(rand.NewSource(7)))
	if _, err := r.Optimize(ctx, q); err != nil {
		b.Fatal(err)
	}
	fp := fingerprint.Of(q)
	ct.Kill(strings.TrimPrefix(r.Ring().Primary(fp), "http://"))
	if _, err := r.Optimize(ctx, q); err != nil { // warm the successor
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := r.Optimize(ctx, q)
		if err != nil || !resp.CacheHit {
			b.Fatalf("err=%v", err)
		}
	}
}

// BenchmarkArcPushIngest measures proactive arc-push throughput end
// to end: the rebalancer encodes a 256-entry arc batch, POSTs it over
// the in-process transport, and the receiver strict-decodes and warms
// it (re-pushing the same batch is an idempotent same-tier refresh,
// so the hot path is identical to a first push). The per-op payload
// rate is the number to read next to BenchmarkWarmStartLoad: warm
// start is the pull path at join, arc push the push path at rebalance.
func BenchmarkArcPushIngest(b *testing.B) {
	receiver := serve.New(serve.Config{TCoeff: 1, Seed: 1})
	ct := faultinject.NewClusterTransport(map[string]http.Handler{"peer1": receiver.Handler()}, nil)
	rb, err := NewRebalancer(RebalanceConfig{
		Self:      "http://peer0",
		Cache:     plancache.New(plancache.Config{Capacity: 512}),
		Transport: ct,
	})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]*plancache.Entry, 256)
	for i := range entries {
		entries[i] = wsEntry(i + 1)
	}
	ctx := context.Background()
	b.SetBytes(int64(len(persist.EncodeSnapshot(entries))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := rb.pushArc(ctx, "http://peer1", entries)
		if err != nil || n != len(entries) {
			b.Fatalf("pushed %d, err=%v", n, err)
		}
	}
}

// BenchmarkWarmStartLoad measures snapshot ingest: strict decode plus
// cache warm of a shipped 256-entry snapshot.
func BenchmarkWarmStartLoad(b *testing.B) {
	entries := make([]*plancache.Entry, 256)
	for i := range entries {
		entries[i] = wsEntry(i + 1)
	}
	payload := persist.EncodeSnapshot(entries)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, err := persist.DecodeSnapshotStrict(payload)
		if err != nil {
			b.Fatal(err)
		}
		plancache.New(plancache.Config{Capacity: 512}).WarmAll(decoded)
	}
}
