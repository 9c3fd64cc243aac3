package client

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"joinopt/internal/serve"
	"joinopt/internal/wire"
	"joinopt/internal/workload"
)

// TestWireOptimizeEndToEnd: Config.Wire against a real daemon handler.
// The binary path must return the same response the JSON path does,
// and the second call must be a cache hit (one optimizer run total —
// the protocols share the cache entry).
func TestWireOptimizeEndToEnd(t *testing.T) {
	srv := serve.New(serve.Config{TCoeff: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := workload.Default().Generate(10, rand.New(rand.NewSource(61)))

	jc, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := New(Config{BaseURL: ts.URL, Wire: true})
	if err != nil {
		t.Fatal(err)
	}

	jsonResp, err := jc.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	wireResp, err := wc.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !wireResp.CacheHit {
		t.Fatal("wire call after JSON call was not a cache hit")
	}
	if wireResp.Fingerprint != jsonResp.Fingerprint {
		t.Fatalf("fingerprint drift: %s vs %s", wireResp.Fingerprint, jsonResp.Fingerprint)
	}
	if wireResp.Explain != jsonResp.Explain {
		t.Fatalf("Explain drift:\njson:\n%s\nwire:\n%s", jsonResp.Explain, wireResp.Explain)
	}
	if wireResp.TotalCost != jsonResp.TotalCost || wireResp.Tier != jsonResp.Tier {
		t.Fatalf("response drift: %+v vs %+v", wireResp, jsonResp)
	}
}

// TestWireResponseSniffing: a daemon that ignores Accept and answers a
// binary request with JSON still decodes — the client sniffs the frame
// magic instead of trusting headers.
func TestWireResponseSniffing(t *testing.T) {
	resp := &serve.OptimizeResponse{Fingerprint: "abcd", CacheHit: true, Explain: "plan"}
	// JSON bytes through the wire-aware decoder.
	got, err := decodeOptimizeResponse([]byte(`{"fingerprint":"abcd","cacheHit":true,"explain":"plan"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != resp.Fingerprint || !got.CacheHit || got.Explain != resp.Explain {
		t.Fatalf("JSON sniff decoded %+v", got)
	}
	// Binary bytes through the same decoder.
	enc := wire.EncodeResponse(&wire.Response{Fingerprint: "abcd", CacheHit: true, Explain: "plan"})
	got, err = decodeOptimizeResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != resp.Fingerprint || !got.CacheHit || got.Explain != resp.Explain {
		t.Fatalf("wire sniff decoded %+v", got)
	}
}
