package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/wire"
	"joinopt/internal/workload"
)

// oracleJSON is the JSON response as the handler once wrote it:
// buildResponse's envelope through encoding/json's indented Encoder.
func oracleJSON(a *answer) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(buildResponse(a.q, a.order, a.fp, a.entry, a.hit, a.shared))
	return buf.Bytes(), err
}

// oracleWire is the wire response as the handler once wrote it:
// buildResponse's envelope copied field by field into wire.Response.
func oracleWire(a *answer) []byte {
	resp := buildResponse(a.q, a.order, a.fp, a.entry, a.hit, a.shared)
	return wire.AppendResponse(nil, &wire.Response{
		Fingerprint:   resp.Fingerprint,
		CacheHit:      resp.CacheHit,
		Coalesced:     resp.Coalesced,
		Degraded:      resp.Degraded,
		DegradeReason: resp.DegradeReason,
		BudgetUsed:    resp.BudgetUsed,
		TotalCost:     resp.TotalCost,
		Order:         resp.Order,
		Names:         resp.Names,
		Tier:          resp.Tier,
		Explain:       resp.Explain,
	})
}

// checkWriters fails t unless both writers append exactly the oracles'
// bytes after existing content. A non-finite totalCost is checked on
// the wire only: JSON refuses it (TestNonFiniteTotalCost).
func checkWriters(t *testing.T, a *answer) {
	t.Helper()
	prefix := []byte("prefix")
	got, _ := a.appendWire(append([]byte(nil), prefix...), []byte("stale scratch"))
	if want := oracleWire(a); !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
		t.Fatalf("wire writer differs from wire.AppendResponse:\n%s", bytesDiff(got[len(prefix):], want))
	}
	want, err := oracleJSON(a)
	if err != nil {
		if tc := a.entry.Plan.TotalCost; !math.IsInf(tc, 0) && !math.IsNaN(tc) {
			t.Fatalf("oracle refused a finite response: %v", err)
		}
		return
	}
	got, _ = a.appendJSON(append([]byte(nil), prefix...), []byte("stale scratch"))
	if !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
		t.Fatalf("JSON writer differs from encoding/json:\n%s", bytesDiff(got[len(prefix):], want))
	}
}

// costs print as %.6g and as ES6 floats in both plain and exponent form.
var writerCosts = []float64{0, 1, 42.5, 18000, 123456789, 1e20, 1e21, 3.5e300, 1e-7, 2.5e-5, 1.0 / 3}

// randomAnswer builds an answer for q with a random plan over its
// canonical positions: one or more components, random costs, maybe
// degraded with a hostile reason, random tier and flags.
func randomAnswer(q *catalog.Query, rng *rand.Rand) *answer {
	fp, order := fingerprint.Canonical(q)
	n := len(q.Relations)
	perm := rng.Perm(n)
	pl := &plan.Plan{CrossCost: writerCosts[rng.Intn(len(writerCosts))]}
	for lo := 0; lo < n; {
		hi := lo + 1 + rng.Intn(n-lo)
		if rng.Intn(2) == 0 {
			hi = n // mostly one component, as connected queries have
		}
		c := plan.Result{Cost: writerCosts[rng.Intn(len(writerCosts))]}
		for _, p := range perm[lo:hi] {
			c.Perm = append(c.Perm, catalog.RelID(p))
		}
		pl.Components = append(pl.Components, c)
		pl.TotalCost += c.Cost
		lo = hi
	}
	pl.TotalCost += pl.CrossCost
	if rng.Intn(3) == 0 {
		pl.Degraded = true
		pl.DegradeReason = plan.DegradePanic + ": " + hostileNames[rng.Intn(len(hostileNames))]
	}
	return &answer{
		q: q, order: order, fp: fp,
		entry:  &plancache.Entry{Fingerprint: fp, Plan: pl, BudgetUsed: rng.Int63n(1 << 40), Tier: uint8(rng.Intn(3))},
		hit:    rng.Intn(2) == 0,
		shared: rng.Intn(2) == 0,
	}
}

// TestWritersMatchEnvelopeEncoders is the byte-identity contract of the
// direct writers, over generated queries of 1 to 60 relations carrying
// hostile names, and every combination of the hit, coalesced and tier
// flags.
func TestWritersMatchEnvelopeEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		q := workload.Default().Generate(1+trial%60, rng)
		for i := range q.Relations {
			if rng.Intn(3) == 0 {
				q.Relations[i].Name = hostileNames[rng.Intn(len(hostileNames))]
			}
		}
		checkWriters(t, randomAnswer(q, rng))
	}
	q := workload.Default().Generate(5, rng)
	a := randomAnswer(q, rng)
	for _, tier := range []uint8{0, plancache.TierGreedy, plancache.TierFull} {
		for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			a.entry.Tier, a.hit, a.shared = tier, flags[0], flags[1]
			checkWriters(t, a)
		}
	}
	// A query without relations: the order and names lists are empty.
	empty := &catalog.Query{}
	fp, order := fingerprint.Canonical(empty)
	checkWriters(t, &answer{q: empty, order: order, fp: fp, entry: &plancache.Entry{Fingerprint: fp, Plan: &plan.Plan{}}})
}

// FuzzWriters drives both writers with arbitrary names, degrade
// reasons and costs, against the oracles.
func FuzzWriters(f *testing.F) {
	f.Add("a", "", "", 1.5, uint8(0))
	f.Add("<&>", " ", plan.DegradeCancelled, 1e21, uint8(7))
	f.Add("bad \xff", "\b\f", "panic: \x00", math.Inf(1), uint8(5))
	f.Fuzz(func(t *testing.T, name0, name1, reason string, cost float64, flags uint8) {
		q := &catalog.Query{
			Relations: []catalog.Relation{{Name: name0, Cardinality: 10}, {Name: name1, Cardinality: 20}, {Cardinality: 30}},
			Predicates: []catalog.Predicate{
				{Left: 0, Right: 1, Selectivity: 0.1},
				{Left: 1, Right: 2, Selectivity: 0.2},
			},
		}
		fp, order := fingerprint.Canonical(q)
		pl := &plan.Plan{
			Components: []plan.Result{{Perm: plan.Perm{2, 0}, Cost: cost}, {Perm: plan.Perm{1}, Cost: -cost}},
			CrossCost:  cost / 3,
			TotalCost:  cost,
			Degraded:   flags&4 != 0,
		}
		if pl.Degraded {
			pl.DegradeReason = reason
		}
		checkWriters(t, &answer{
			q: q, order: order, fp: fp,
			entry: &plancache.Entry{Fingerprint: fp, Plan: pl, BudgetUsed: int64(len(reason)), Tier: flags >> 3 % 3},
			hit:   flags&1 != 0, shared: flags&2 != 0,
		})
	})
}

// TestNonFiniteTotalCost: a cached plan whose total cost is NaN or
// infinite gets the 500 status, headers and body encoding/json's
// refusal always gave over JSON, and its ordinary frame over the wire.
func TestNonFiniteTotalCost(t *testing.T) {
	for _, tc := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		s := New(Config{TCoeff: 1})
		q := workload.Default().Generate(6, rand.New(rand.NewSource(3)))
		fp, order := fingerprint.Canonical(q)
		e := &plancache.Entry{Fingerprint: fp, Plan: &plan.Plan{
			Components: []plan.Result{{Perm: plan.Perm{0, 1, 2, 3, 4, 5, 6}, Cost: tc}},
			TotalCost:  tc,
		}, BudgetUsed: 7, Tier: plancache.TierFull}
		if !s.Cache().Put(e) {
			t.Fatal("entry not admitted")
		}
		a := &answer{q: q, order: order, fp: fp, entry: e, hit: true}

		want := httptest.NewRecorder()
		want.Header().Set("X-Plan-Tier", "2")
		writeJSON(want, http.StatusOK, buildResponse(q, order, fp, e, true, false))
		got := httptest.NewRecorder()
		s.Handler().ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(queryBody(t, q))))
		if got.Code != http.StatusInternalServerError || got.Code != want.Code {
			t.Fatalf("totalCost %v: status %d, want %d", tc, got.Code, want.Code)
		}
		if got.Body.String() != want.Body.String() {
			t.Fatalf("totalCost %v: body %q, want %q", tc, got.Body, want.Body)
		}
		if fmt.Sprint(got.Header()) != fmt.Sprint(want.Header()) {
			t.Fatalf("totalCost %v: headers %v, want %v", tc, got.Header(), want.Header())
		}

		req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(wire.EncodeQuery(q)))
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), oracleWire(a)) {
			t.Fatalf("totalCost %v over the wire: status %d, body differs from the oracle", tc, rec.Code)
		}
	}
}

// TestWritersAllocateNothing: into warm buffers, neither writer
// allocates.
func TestWritersAllocateNothing(t *testing.T) {
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	q.Relations[3].Name = ""
	q.Relations[4].Name = "café <⋈>"
	a := randomAnswer(q, rand.New(rand.NewSource(1)))
	var out, scratch []byte
	out, scratch = a.appendJSON(out, scratch)
	out, scratch = a.appendWire(out, scratch)
	if n := testing.AllocsPerRun(100, func() { out, scratch = a.appendJSON(out[:0], scratch) }); n != 0 {
		t.Errorf("JSON writer: %v allocations", n)
	}
	if n := testing.AllocsPerRun(100, func() { out, scratch = a.appendWire(out[:0], scratch) }); n != 0 {
		t.Errorf("wire writer: %v allocations", n)
	}
}

// TestRespondSharedHeaderValues: respond puts shared value slices into
// the header map instead of allocating new ones, so a later Add on one
// response must reallocate rather than write into them.
func TestRespondSharedHeaderValues(t *testing.T) {
	q := workload.Default().Generate(8, rand.New(rand.NewSource(2)))
	fp, order := fingerprint.Canonical(q)
	perm := make(plan.Perm, len(q.Relations))
	for i := range perm {
		perm[i] = catalog.RelID(i)
	}
	for _, tier := range []uint8{plancache.TierGreedy, plancache.TierFull} {
		for _, accept := range []string{"", wire.ContentType} {
			e := &plancache.Entry{Fingerprint: fp, Plan: &plan.Plan{
				Components: []plan.Result{{Perm: perm, Cost: 5}}, TotalCost: 5,
			}, Tier: tier}
			req := httptest.NewRequest(http.MethodPost, "/optimize", nil)
			req.Header.Set("Accept", accept)
			rec := httptest.NewRecorder()
			respond(rec, req, &answer{q: q, order: order, fp: fp, entry: e})
			wantTier, wantType := "2", "application/json"
			if tier == plancache.TierGreedy {
				wantTier = "1"
			}
			if accept != "" {
				wantType = wire.ContentType
			}
			if got := rec.Header().Get("X-Plan-Tier"); got != wantTier {
				t.Errorf("tier %d: X-Plan-Tier %q, want %q", tier, got, wantTier)
			}
			if got := rec.Header().Get("Content-Type"); got != wantType {
				t.Errorf("Accept %q: Content-Type %q, want %q", accept, got, wantType)
			}
			rec.Header().Add("X-Plan-Tier", "3")
			rec.Header().Add("Content-Type", "text/plain")
		}
	}
	for _, v := range []struct {
		name string
		vals []string
		want string
	}{
		{"tier 1", tier1Header, "1"},
		{"tier 2", tier2Header, "2"},
		{"JSON", jsonContentType, "application/json"},
		{"wire", wireContentType, wire.ContentType},
	} {
		if len(v.vals) != 1 || cap(v.vals) != 1 || v.vals[0] != v.want {
			t.Errorf("shared %s header value is %q (cap %d), want [%q] (cap 1)", v.name, v.vals, cap(v.vals), v.want)
		}
	}
}

// BenchmarkAppendJSONResponse20 / BenchmarkAppendWireResponse20 price
// the direct writers on a cache hit of the 20-join smoke query, into
// warm buffers: zero allocations.
func BenchmarkAppendJSONResponse20(b *testing.B) { benchAppendResponse(b, (*answer).appendJSON) }
func BenchmarkAppendWireResponse20(b *testing.B) { benchAppendResponse(b, (*answer).appendWire) }

func benchAppendResponse(b *testing.B, write func(*answer, []byte, []byte) ([]byte, []byte)) {
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	s := New(Config{TCoeff: 1})
	if _, err := s.OptimizeQuery(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	fp, order := fingerprint.Canonical(q)
	e, ok := s.Cache().Peek(fp)
	if !ok {
		b.Fatal("smoke query not cached")
	}
	a := &answer{q: q, order: order, fp: fp, entry: e, hit: true}
	out, scratch := write(a, nil, nil)
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, scratch = write(a, out[:0], scratch)
	}
}
