package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"joinopt/internal/fingerprint"
	"joinopt/internal/persist"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/telemetry"
)

// arcEntry fabricates a pushable cache entry.
func arcEntry(i int) *plancache.Entry {
	var fp fingerprint.Fingerprint
	binary.LittleEndian.PutUint64(fp[:8], uint64(0xabc0+i))
	return &plancache.Entry{
		Fingerprint: fp,
		Plan: &plan.Plan{
			Components: []plan.Result{{Perm: plan.Perm{0, 1}, Cost: float64(i) + 0.5}},
			TotalCost:  float64(i) + 0.5,
		},
		BudgetUsed: int64(100 + i),
		Tier:       plancache.TierFull,
	}
}

func TestSnapshotArcPush(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, Config{Metrics: reg, ArcPushMaxBytes: 4096})

	entries := []*plancache.Entry{arcEntry(1), arcEntry(2), arcEntry(3)}
	payload := persist.EncodeSnapshot(entries)
	resp, err := http.Post(ts.URL+"/snapshot/arc", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var ack ArcPushResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.Received != 3 || ack.Warmed != 3 {
		t.Fatalf("status %d ack %+v, want 3 received and warmed", resp.StatusCode, ack)
	}
	// Pushed entries are warm hits, not misses — the joining peer's
	// whole point.
	for _, e := range entries {
		got, ok := s.Cache().Peek(e.Fingerprint)
		if !ok || got.Plan.TotalCost != e.Plan.TotalCost {
			t.Fatalf("entry %s not warmed faithfully", e.Fingerprint)
		}
	}
	if st := s.Cache().Stats(); st.Warmed != 3 || st.Misses != 0 {
		t.Fatalf("cache stats %+v, want warmed-only", st)
	}

	// Re-pushing the same arc is idempotent: the entries refresh in
	// place (same-tier replacement), the entry count does not grow.
	resp, err = http.Post(ts.URL+"/snapshot/arc", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Received != 3 || s.Cache().Stats().Entries != 3 {
		t.Fatalf("re-push ack %+v entries %d, want 3 received / 3 entries", ack, s.Cache().Stats().Entries)
	}

	// Defect handling: wrong method, garbage payload, oversize payload.
	resp, err = http.Get(ts.URL + "/snapshot/arc")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/snapshot/arc", "application/octet-stream", strings.NewReader("not a container"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/snapshot/arc", "application/octet-stream", bytes.NewReader(make([]byte, 8192)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize status %d, want 413", resp.StatusCode)
	}

	// The receiving-side counters are on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		"ljq_arc_push_received_total 2",
		"ljq_arc_push_entries_total 6", // 3 warmed per accepted push
		"ljq_arc_push_rejected_total 3",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestSnapshotArcRefusesPositionsOutsideThePlan: a pushed entry whose
// plan names a position its shape does not have is a defective payload,
// answered 400 with nothing warmed, so no later request for that shape
// is served an order it cannot translate.
func TestSnapshotArcRefusesPositionsOutsideThePlan(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bad := arcEntry(2)
	bad.Plan.Components[0].Perm = plan.Perm{0, 99}
	payload := persist.EncodeSnapshot([]*plancache.Entry{arcEntry(1), bad})
	resp, err := http.Post(ts.URL+"/snapshot/arc", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if st := s.Cache().Stats(); st.Warmed != 0 || st.Entries != 0 {
		t.Fatalf("cache stats %+v, want nothing warmed", st)
	}
}
