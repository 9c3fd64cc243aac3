package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/workload"
)

func testQueries(t testing.TB) []*catalog.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(53))
	var qs []*catalog.Query
	spec := workload.Default()
	for _, shape := range workload.Shapes {
		for _, n := range []int{2, 5, 20, 60} {
			q, err := spec.GenerateShape(shape, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
	}
	// Histograms and selections don't come out of the generator; build
	// one query that exercises every optional field.
	qs = append(qs, &catalog.Query{
		Relations: []catalog.Relation{
			{Name: "orders", Cardinality: 1_000_000, Selections: []catalog.Selection{{Selectivity: 0.1}, {Selectivity: 0.5}}},
			{Name: "customers", Cardinality: 50_000},
		},
		Predicates: []catalog.Predicate{{
			Left: 0, Right: 1, LeftDistinct: 50_000, RightDistinct: 50_000,
			LeftHist:  &catalog.Histogram{Domain: 100, Counts: []float64{10, 20, 30}},
			RightHist: &catalog.Histogram{Domain: 100, Counts: []float64{5, 5, 90}},
		}},
	})
	return qs
}

func TestQueryRoundTrip(t *testing.T) {
	for qi, q := range testQueries(t) {
		q.Normalize()
		enc := EncodeQuery(q)
		got, err := DecodeQuery(enc)
		if err != nil {
			t.Fatalf("query %d: decode: %v", qi, err)
		}
		if !reflect.DeepEqual(q, got) {
			t.Fatalf("query %d: round trip drift:\nsent %+v\ngot  %+v", qi, q, got)
		}
		// Re-encoding the decoded query is byte-identical: the codec is
		// a fixed point once the query is normalized.
		if !bytes.Equal(enc, EncodeQuery(got)) {
			t.Fatalf("query %d: re-encode is not byte-identical", qi)
		}
	}
}

func TestDecodeNormalizes(t *testing.T) {
	// A denormalized predicate (Left > Right, no selectivity) decodes
	// into its normalized form, exactly like the JSON path.
	q := &catalog.Query{
		Relations: []catalog.Relation{{Cardinality: 10}, {Cardinality: 20}},
		Predicates: []catalog.Predicate{
			{Left: 1, Right: 0, LeftDistinct: 4, RightDistinct: 8},
		},
	}
	got, err := DecodeQuery(EncodeQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	p := got.Predicates[0]
	if p.Left != 0 || p.Right != 1 {
		t.Fatalf("endpoints not normalized: %+v", p)
	}
	if p.LeftDistinct != 8 || p.RightDistinct != 4 {
		t.Fatalf("distincts not swapped with endpoints: %+v", p)
	}
	if p.Selectivity != 1.0/8 {
		t.Fatalf("derived selectivity %g, want 0.125", p.Selectivity)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []*Response{
		{},
		{
			Fingerprint:   "deadbeef",
			CacheHit:      true,
			Coalesced:     true,
			Degraded:      true,
			DegradeReason: "budget exhausted",
			BudgetUsed:    123456789,
			TotalCost:     3.25e9,
			Order:         []int{2, 0, 1},
			Names:         []string{"a", "b", ""},
			Tier:          2,
			Explain:       "join(a, b)\n  tier 2 (full anytime search)\n",
		},
	}
	for i, r := range cases {
		enc := EncodeResponse(r)
		got, err := DecodeResponse(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("case %d: round trip drift:\nsent %+v\ngot  %+v", i, r, got)
		}
		if !bytes.Equal(enc, EncodeResponse(got)) {
			t.Fatalf("case %d: re-encode is not byte-identical", i)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	q := &catalog.Query{
		Relations:  []catalog.Relation{{Cardinality: 10}, {Cardinality: 20}},
		Predicates: []catalog.Predicate{{Left: 0, Right: 1, Selectivity: 0.5}},
	}
	valid := EncodeQuery(q)

	mangle := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), valid...))
		if _, err := DecodeQuery(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
	mangle("empty", func(b []byte) []byte { return nil })
	mangle("short header", func(b []byte) []byte { return b[:5] })
	mangle("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mangle("wrong kind", func(b []byte) []byte { b[4] = KindResponse; return b })
	mangle("truncated payload", func(b []byte) []byte { return b[:len(b)-3] })
	mangle("length overruns frame", func(b []byte) []byte { b[5]++; return b })
	mangle("trailing bytes", func(b []byte) []byte {
		b = append(b, 0xff)
		b[5]++ // keep the declared length consistent with the frame
		return b
	})
	// A hostile count: claim 2^32-1 relations in a tiny payload. The
	// guard must reject before allocating.
	mangle("giant relation count", func(b []byte) []byte {
		b[9], b[10], b[11], b[12] = 0xff, 0xff, 0xff, 0xff
		return b
	})
	// Structural validity (not framing): a predicate pointing outside
	// the relation list fails catalog.Validate, not ErrBadFrame.
	bad := &catalog.Query{
		Relations:  []catalog.Relation{{Cardinality: 10}},
		Predicates: []catalog.Predicate{{Left: 0, Right: 7, Selectivity: 0.5}},
	}
	if _, err := DecodeQuery(EncodeQuery(bad)); err == nil || errors.Is(err, ErrBadFrame) {
		t.Errorf("out-of-range predicate: err = %v, want a catalog validation error", err)
	}

	// Response-side: unknown flag bits are a hard error.
	renc := EncodeResponse(&Response{Fingerprint: "ab"})
	idx := headerSize + 4 + 2 // header, fingerprint length, fingerprint bytes
	renc[idx] = 0x80
	if _, err := DecodeResponse(renc); !errors.Is(err, ErrBadFrame) {
		t.Errorf("unknown flag bits: err = %v, want ErrBadFrame", err)
	}
}

func TestIsFrame(t *testing.T) {
	if IsFrame([]byte(`{"relations":[]}`)) {
		t.Fatal("JSON sniffed as a wire frame")
	}
	if !IsFrame(EncodeResponse(&Response{})) {
		t.Fatal("encoded frame not recognized")
	}
}

// BenchmarkEncodeQuery60 / BenchmarkDecodeQuery60 price the codec
// itself at the large end of the workload.
func BenchmarkEncodeQuery60(b *testing.B) {
	q := workload.Default().Generate(60, rand.New(rand.NewSource(29)))
	buf := EncodeQuery(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendQuery(buf[:0], q)
	}
}

func BenchmarkDecodeQuery60(b *testing.B) {
	q := workload.Default().Generate(60, rand.New(rand.NewSource(29)))
	enc := EncodeQuery(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeQuery(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// testCanonical builds a canonical frame's content for q: a made-up
// fingerprint and a random permutation of q's relations.
func testCanonical(q *catalog.Query, rng *rand.Rand) Canonical {
	var c Canonical
	rng.Read(c.Fingerprint[:])
	for _, v := range rng.Perm(len(q.Relations)) {
		c.Order = append(c.Order, catalog.RelID(v))
	}
	return c
}

// TestCanonicalFrame: EncodeCanonicalQuery sizes its body exactly, and
// SplitCanonical gives back the frame's content and the query frame
// behind it byte for byte; a body without a canonical frame passes
// through untouched with a zero Canonical.
func TestCanonicalFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for qi, q := range testQueries(t) {
		c := testCanonical(q, rng)
		body := EncodeCanonicalQuery(c.Fingerprint, c.Order, q)
		if len(body) != cap(body) {
			t.Fatalf("query %d: body of %d bytes allocated %d", qi, len(body), cap(body))
		}
		got, rest, err := SplitCanonical(body)
		if err != nil {
			t.Fatalf("query %d: split: %v", qi, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("query %d: split %+v, want %+v", qi, got, c)
		}
		if !bytes.Equal(rest, EncodeQuery(q)) {
			t.Fatalf("query %d: the bytes after the canonical frame are not the query frame", qi)
		}
		if !bytes.Equal(AppendCanonical(nil, c.Fingerprint, c.Order), body[:len(body)-len(rest)]) {
			t.Fatalf("query %d: AppendCanonical differs from the split frame", qi)
		}
		plain := EncodeQuery(q)
		got, rest, err = SplitCanonical(plain)
		if err != nil || got.Order != nil || got.Fingerprint != [32]byte{} || &rest[0] != &plain[0] || len(rest) != len(plain) {
			t.Fatalf("query %d: a plain query frame did not pass through: %+v, %d of %d bytes, %v", qi, got, len(rest), len(plain), err)
		}
	}
}

// TestSplitCanonicalRejectsMalformed: a canonical frame that is cut
// short, claims more bytes than the body holds, carries trailing bytes
// or an order that is not a permutation is an ErrBadFrame, and no
// count is trusted past the payload.
func TestSplitCanonicalRejectsMalformed(t *testing.T) {
	valid := AppendCanonical(nil, [32]byte{1, 2, 3}, []catalog.RelID{2, 0, 1})
	orderAt := headerSize + 32 // the order count
	mangle := func(name string, f func(b []byte) []byte) {
		t.Helper()
		b := f(append([]byte(nil), valid...))
		if c, _, err := SplitCanonical(b); !errors.Is(err, ErrBadFrame) || c.Order != nil {
			t.Errorf("%s: split %+v, err = %v, want ErrBadFrame", name, c, err)
		}
	}
	mangle("truncated payload", func(b []byte) []byte { return b[:len(b)-1] })
	mangle("no fingerprint", func(b []byte) []byte { return FinishFrame(b[:headerSize+31], 0) })
	mangle("length overruns body", func(b []byte) []byte { b[5] += 4; return b })
	mangle("oversized frame", func(b []byte) []byte { b[8] = 0xff; return b })
	mangle("trailing payload bytes", func(b []byte) []byte { return FinishFrame(append(b, 0), 0) })
	mangle("giant order count", func(b []byte) []byte {
		b[orderAt], b[orderAt+1], b[orderAt+2], b[orderAt+3] = 0xff, 0xff, 0xff, 0xff
		return b
	})
	mangle("order count past the payload", func(b []byte) []byte { b[orderAt]++; return b })
	mangle("repeated relation", func(b []byte) []byte { b[orderAt+8] = 2; return b })
	mangle("relation out of range", func(b []byte) []byte { b[orderAt+4] = 3; return b })
	mangle("relation past 2^31", func(b []byte) []byte { b[orderAt+7] = 0xff; return b })
}
