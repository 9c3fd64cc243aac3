package serve

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"joinopt/internal/analysis/invariant"
	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/persist"
	"joinopt/internal/plancache"
	"joinopt/internal/wire"
	"joinopt/internal/workload"
)

// hintCorpus is workload.Default() and every workload.Shapes topology
// at 2–60 relations, each followed by two twins of the same shape: one
// with every predicate's endpoints flipped and one with its predicates
// shuffled. The router canonicalizes the caller's query while the peer
// canonicalizes what it decodes, which the wire decoder has normalized.
func hintCorpus(t *testing.T) []*catalog.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(83))
	spec := workload.Default()
	var qs []*catalog.Query
	for n := 2; n <= 60; n++ {
		base := []*catalog.Query{spec.Generate(n, rng)}
		for _, shape := range workload.Shapes {
			q, err := spec.GenerateShape(shape, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, q)
		}
		for _, q := range base {
			flipped := q.Clone()
			for i := range flipped.Predicates {
				p := &flipped.Predicates[i]
				p.Left, p.Right = p.Right, p.Left
				p.LeftDistinct, p.RightDistinct = p.RightDistinct, p.LeftDistinct
				p.LeftHist, p.RightHist = p.RightHist, p.LeftHist
			}
			shuffled := q.Clone()
			rng.Shuffle(len(shuffled.Predicates), func(i, j int) {
				shuffled.Predicates[i], shuffled.Predicates[j] = shuffled.Predicates[j], shuffled.Predicates[i]
			})
			qs = append(qs, q, flipped, shuffled)
		}
	}
	return qs
}

// hinted is the body the router sends for q: its canonical frame, then
// its query frame.
func hinted(q *catalog.Query) []byte {
	fp, order := fingerprint.Canonical(q)
	return wire.EncodeCanonicalQuery(fp, order, q)
}

// wireRequest builds a POST /optimize of a wire body that asks for a
// response in codec ("json" or "wire").
func wireRequest(body []byte, codec string) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	if codec == "wire" {
		req.Header.Set("Accept", wire.ContentType)
	}
	return req
}

// postBody posts a wire body to s's handler, asking for a response in
// codec.
func postBody(s *Server, body []byte, codec string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, wireRequest(body, codec))
	return rec
}

// TestDifferentialCanonicalHint: the canonical hint changes nothing a
// client or an operator can see. The router's hint equals the peer's
// own fingerprint.Canonical of the query it decodes; every response,
// the hinted hits included, is byte-identical to the same request
// without a hint, in both response codecs; and the two request
// sequences leave identical cache counters and identical snapshot
// bytes.
func TestDifferentialCanonicalHint(t *testing.T) {
	plain, hint := New(Config{TCoeff: 1}), New(Config{TCoeff: 1})
	for qi, q := range hintCorpus(t) {
		fp, order := fingerprint.Canonical(q)
		dq, err := wire.DecodeQuery(wire.EncodeQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		if pfp, porder := fingerprint.Canonical(dq); pfp != fp || !slices.Equal(porder, order) {
			t.Fatalf("query %d (%d relations): the router's hint %x %v differs from the peer's own %x %v",
				qi, len(q.Relations), fp, order, pfp, porder)
		}
		// A miss for the first query of each shape, then hits.
		for i, codec := range []string{"json", "json", "wire"} {
			if i > 0 {
				if e, ok := hint.Cache().Peek(fp); !ok || !covers(e.Plan, len(order)) {
					t.Fatalf("query %d: a hit that the hint cannot answer", qi)
				}
			}
			got, want := postBody(hint, hinted(q), codec), postBody(plain, wire.EncodeQuery(q), codec)
			if got.Code != http.StatusOK || want.Code != http.StatusOK {
				t.Fatalf("query %d: status %d hinted, %d plain", qi, got.Code, want.Code)
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("query %d, request %d (%s): hinted response differs:\n%s", qi, i, codec, bytesDiff(got.Body.Bytes(), want.Body.Bytes()))
			}
			if !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Fatalf("query %d, request %d: headers %v hinted, %v plain", qi, i, got.Header(), want.Header())
			}
		}
	}
	if got, want := hint.Cache().Stats(), plain.Cache().Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cache counters differ:\nhinted %+v\n plain %+v", got, want)
	}
	if !bytes.Equal(persist.EncodeSnapshot(hint.Cache().Dump()), persist.EncodeSnapshot(plain.Cache().Dump())) {
		t.Fatal("snapshots differ")
	}
}

// TestCanonicalHintHostile: a wrong or malformed hint harms at most its
// own sender's answer. A fingerprint the cache lacks falls through to
// one miss keyed by the query's own fingerprint. Another shape's
// fingerprint of the same size mislabels its sender's answer (and trips
// the ljqdebug assertion); every other wrong hint falls through to the
// query's own answer, and a malformed frame is a 400. None of them
// inserts, journals or schedules an upgrade, and no other request's
// response changes.
func TestCanonicalHintHostile(t *testing.T) {
	s := New(Config{TCoeff: 1, Tiered: true})
	var admits atomic.Int64 // the journal's hook: an admission is a journal record
	s.Cache().SetHooks(plancache.Hooks{OnAdmit: func(*plancache.Entry) { admits.Add(1) }})
	rng := rand.New(rand.NewSource(89))
	spec := workload.Default()
	a, b, c, fresh := spec.Generate(12, rng), spec.Generate(12, rng), spec.Generate(9, rng), spec.Generate(10, rng)
	for _, q := range []*catalog.Query{a, b, c} {
		if rec := postBody(s, wire.EncodeQuery(q), "wire"); rec.Code != http.StatusOK {
			t.Fatalf("warm-up: status %d", rec.Code)
		}
		s.WaitUpgrades()
	}
	fpA, orderA := fingerprint.Canonical(a)
	fpB, _ := fingerprint.Canonical(b)
	fpC, _ := fingerprint.Canonical(c)
	if fpA == fpB {
		t.Fatal("a and b share a shape")
	}

	// A fingerprint the cache lacks: one miss, one flight under the
	// query's own fingerprint, nothing under the hinted one.
	var absent [32]byte
	rng.Read(absent[:])
	fpFresh, orderFresh := fingerprint.Canonical(fresh)
	before := s.Cache().Stats()
	if rec := postBody(s, wire.EncodeCanonicalQuery(absent, orderFresh, fresh), "wire"); rec.Code != http.StatusOK {
		t.Fatalf("absent fingerprint: status %d", rec.Code)
	}
	s.WaitUpgrades()
	after := s.Cache().Stats()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits || after.Coalesced != before.Coalesced {
		t.Fatalf("absent fingerprint: counters %+v, then %+v; want one miss", before, after)
	}
	if _, ok := s.Cache().Peek(fpFresh); !ok {
		t.Fatal("absent fingerprint: no entry under the query's own fingerprint")
	}
	if _, ok := s.Cache().Peek(absent); ok {
		t.Fatal("absent fingerprint: an entry under the hinted fingerprint")
	}

	answers := func() [][]byte {
		var out [][]byte
		for _, q := range []*catalog.Query{a, b, c, fresh} {
			for _, codec := range []string{"json", "wire"} {
				out = append(out, postBody(s, wire.EncodeQuery(q), codec).Body.Bytes())
			}
		}
		return out
	}
	want := answers()
	ownA := [2][]byte{want[0], want[1]}
	entries, admitted := s.Cache().Stats().Entries, admits.Load()
	var st TierStatus
	s.tiers.fillStatus(&st)
	upgrades := st.UpgradesStarted

	perm := func(n int) []catalog.RelID {
		out := make([]catalog.RelID, n)
		for i := range out {
			out[i] = catalog.RelID(i)
		}
		return out
	}
	repeated := slices.Clone(orderA)
	repeated[1] = repeated[0]
	frame := wire.EncodeCanonicalQuery(fpA, orderA, a)
	fallThrough := map[string][]byte{
		"another size's fingerprint": wire.EncodeCanonicalQuery(fpC, orderA, a),
		"an order that omits one":    wire.EncodeCanonicalQuery(fpA, perm(len(orderA)-1), a),
		"an order one too long":      wire.EncodeCanonicalQuery(fpA, perm(len(orderA)+1), a),
	}
	for name, body := range fallThrough {
		for i, codec := range []string{"json", "wire"} {
			rec := postBody(s, body, codec)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ownA[i]) {
				t.Fatalf("%s (%s): status %d, answer differs from the query's own:\n%s", name, codec, rec.Code, bytesDiff(rec.Body.Bytes(), ownA[i]))
			}
		}
	}
	malformed := map[string][]byte{
		"an order that repeats one": wire.EncodeCanonicalQuery(fpA, repeated, a),
		"a truncated frame":         frame[:20],
		"an oversized frame":        append(slices.Clone(frame[:len(frame)-len(wire.EncodeQuery(a))]), 0),
	}
	malformed["an oversized frame"][8] = 0x7f
	for name, body := range malformed {
		if rec := postBody(s, body, "wire"); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, rec.Code)
		}
	}

	// Another shape's fingerprint with the same number of relations: a
	// hit on b's entry, written through a's order. The ljqdebug build
	// asserts that a hint equals the query's own canonical form.
	mislabeled := wire.EncodeCanonicalQuery(fpB, orderA, a)
	func() {
		if invariant.Enabled {
			defer func() {
				if recover() == nil {
					t.Fatal("ljqdebug: a wrong hint did not trip the assertion")
				}
			}()
		}
		rec := postBody(s, mislabeled, "wire")
		r, err := wire.DecodeResponse(rec.Body.Bytes())
		if err != nil || !r.CacheHit || r.Fingerprint != fpB.String() {
			t.Fatalf("same-size fingerprint: %+v, %v; want a hit on b's entry", r, err)
		}
	}()

	if got := answers(); !reflect.DeepEqual(got, want) {
		t.Fatal("a hostile hint changed another request's answer")
	}
	s.tiers.fillStatus(&st)
	if got := s.Cache().Stats().Entries; got != entries || admits.Load() != admitted || st.UpgradesStarted != upgrades {
		t.Fatalf("hostile hints: entries %d → %d, admissions %d → %d, upgrades %d → %d",
			entries, got, admitted, admits.Load(), upgrades, st.UpgradesStarted)
	}
}

// BenchmarkHandlerWireHit20 is the peer's side of a routed hit: the
// smoke query's wire request through the handler, without the
// canonical frame (plain: the handler canonicalizes the query) and
// with it (hinted: the router's fingerprint and order answer the hit).
func BenchmarkHandlerWireHit20(b *testing.B) {
	s := New(Config{TCoeff: 1})
	q := workload.Default().Generate(20, rand.New(rand.NewSource(4)))
	h := s.Handler()
	for _, bc := range []struct {
		name string
		body []byte
	}{{"plain", wire.EncodeQuery(q)}, {"hinted", hinted(q)}} {
		b.Run(bc.name, func(b *testing.B) {
			h.ServeHTTP(httptest.NewRecorder(), wireRequest(bc.body, "wire")) // warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, wireRequest(bc.body, "wire"))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}
