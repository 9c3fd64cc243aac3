package wire

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/workload"
)

// oracleDecodeQuery is the one-pass decoder DecodeQuery replaced: it
// allocates each name, selection slice and histogram on its own as it
// reads them. DecodeQuery must return what it returns, or fail as it
// fails.
func oracleDecodeQuery(data []byte) (*catalog.Query, error) {
	payload, err := frame(data, KindQuery)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	q := &catalog.Query{}
	nrel := r.count(minRelationSize, "relation")
	if r.err == nil && nrel > 0 {
		q.Relations = make([]catalog.Relation, nrel)
	}
	for i := 0; i < nrel && r.err == nil; i++ {
		rel := &q.Relations[i]
		rel.Name = r.str()
		rel.Cardinality = int64(r.u64())
		nsel := r.count(8, "selection")
		if r.err != nil {
			break
		}
		if nsel > 0 {
			rel.Selections = make([]catalog.Selection, nsel)
		}
		for j := range rel.Selections {
			rel.Selections[j].Selectivity = r.f64()
		}
	}
	npred := r.count(minPredicateSize, "predicate")
	if r.err == nil && npred > 0 {
		q.Predicates = make([]catalog.Predicate, npred)
	}
	for i := 0; i < npred && r.err == nil; i++ {
		p := &q.Predicates[i]
		p.Left = catalog.RelID(int32(r.u32()))
		p.Right = catalog.RelID(int32(r.u32()))
		p.LeftDistinct = r.f64()
		p.RightDistinct = r.f64()
		p.Selectivity = r.f64()
		p.LeftHist = oracleHist(r)
		p.RightHist = oracleHist(r)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, r.remaining())
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q.Normalize()
	return q, nil
}

func oracleHist(r *reader) *catalog.Histogram {
	present := r.u8()
	switch present {
	case 0:
		return nil
	case 1:
	default:
		r.fail("histogram marker %d (want 0 or 1)", present)
		return nil
	}
	h := &catalog.Histogram{Domain: int64(r.u64())}
	n := r.count(8, "histogram bucket")
	if r.err != nil {
		return nil
	}
	h.Counts = make([]float64, n)
	for i := range h.Counts {
		h.Counts[i] = r.f64()
	}
	return h
}

// checkDecodeMatchesOracle fails t unless DecodeQuery and the oracle
// both fail with the same error or both return the same query.
func checkDecodeMatchesOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeQuery(data)
	want, werr := oracleDecodeQuery(data)
	switch {
	case err != nil || werr != nil:
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Fatalf("errors differ:\n got %v\nwant %v", err, werr)
		}
		if errors.Is(err, ErrBadFrame) != errors.Is(werr, ErrBadFrame) {
			t.Fatalf("ErrBadFrame wrapping differs: got %v, want %v", err, werr)
		}
	default:
		if d := queryDiff(got, want); d != "" {
			t.Fatalf("decoded queries differ: %s", d)
		}
		checkCapped(t, got)
	}
}

// checkCapped fails t unless every nested slice of q is capped at its
// length, so an append by the caller cannot overwrite the neighbour
// it shares a backing array with.
func checkCapped(t *testing.T, q *catalog.Query) {
	t.Helper()
	for i, r := range q.Relations {
		if cap(r.Selections) != len(r.Selections) {
			t.Fatalf("relation %d: selections len %d cap %d", i, len(r.Selections), cap(r.Selections))
		}
	}
	for i, p := range q.Predicates {
		for _, h := range []*catalog.Histogram{p.LeftHist, p.RightHist} {
			if h != nil && cap(h.Counts) != len(h.Counts) {
				t.Fatalf("predicate %d: histogram counts len %d cap %d", i, len(h.Counts), cap(h.Counts))
			}
		}
	}
}

// queryDiff compares two queries field by field, floats by their bits
// and slices by nil-ness too, and describes the first difference.
func queryDiff(a, b *catalog.Query) string {
	if (a.Relations == nil) != (b.Relations == nil) || len(a.Relations) != len(b.Relations) {
		return fmt.Sprintf("relations %v vs %v", a.Relations, b.Relations)
	}
	for i := range a.Relations {
		ra, rb := &a.Relations[i], &b.Relations[i]
		if ra.Name != rb.Name || ra.Cardinality != rb.Cardinality {
			return fmt.Sprintf("relation %d: %+v vs %+v", i, *ra, *rb)
		}
		if (ra.Selections == nil) != (rb.Selections == nil) || len(ra.Selections) != len(rb.Selections) {
			return fmt.Sprintf("relation %d selections: %v vs %v", i, ra.Selections, rb.Selections)
		}
		for j := range ra.Selections {
			if !sameBits(ra.Selections[j].Selectivity, rb.Selections[j].Selectivity) {
				return fmt.Sprintf("relation %d selection %d", i, j)
			}
		}
	}
	if (a.Predicates == nil) != (b.Predicates == nil) || len(a.Predicates) != len(b.Predicates) {
		return fmt.Sprintf("predicates %v vs %v", a.Predicates, b.Predicates)
	}
	for i := range a.Predicates {
		pa, pb := &a.Predicates[i], &b.Predicates[i]
		if pa.Left != pb.Left || pa.Right != pb.Right || !sameBits(pa.LeftDistinct, pb.LeftDistinct) ||
			!sameBits(pa.RightDistinct, pb.RightDistinct) || !sameBits(pa.Selectivity, pb.Selectivity) {
			return fmt.Sprintf("predicate %d: %+v vs %+v", i, *pa, *pb)
		}
		for side, h := range [][2]*catalog.Histogram{{pa.LeftHist, pb.LeftHist}, {pa.RightHist, pb.RightHist}} {
			if d := histDiff(h[0], h[1]); d != "" {
				return fmt.Sprintf("predicate %d histogram %d: %s", i, side, d)
			}
		}
	}
	return ""
}

func histDiff(a, b *catalog.Histogram) string {
	if a == nil || b == nil {
		if a != b {
			return "present on one side only"
		}
		return ""
	}
	if a.Domain != b.Domain || (a.Counts == nil) != (b.Counts == nil) || len(a.Counts) != len(b.Counts) {
		return fmt.Sprintf("%+v vs %+v", *a, *b)
	}
	for i := range a.Counts {
		if !sameBits(a.Counts[i], b.Counts[i]) {
			return fmt.Sprintf("count %d", i)
		}
	}
	return ""
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// histogramQuery has several predicates with histograms of different
// sizes, so a frame cut inside a later predicate still passes the
// predicate count check and fails field by field.
func histogramQuery() *catalog.Query {
	hist := func(n int) *catalog.Histogram {
		h := &catalog.Histogram{Domain: int64(10 * n), Counts: make([]float64, n)}
		for i := range h.Counts {
			h.Counts[i] = float64(i + 1)
		}
		return h
	}
	return &catalog.Query{
		Relations: []catalog.Relation{
			{Name: "a", Cardinality: 100, Selections: []catalog.Selection{{Selectivity: 0.5}}},
			{Name: "bb", Cardinality: 200},
			{Name: "", Cardinality: 300, Selections: []catalog.Selection{{Selectivity: 0.25}, {Selectivity: 0.75}}},
			{Name: "dddd", Cardinality: 400},
		},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, LeftDistinct: 50, RightDistinct: 60, LeftHist: hist(4), RightHist: hist(1)},
			{Left: 1, Right: 2, Selectivity: 0.01, RightHist: hist(3)},
			{Left: 2, Right: 3, LeftDistinct: 70, RightDistinct: 80},
			{Left: 3, Right: 0, LeftDistinct: 90, RightDistinct: 90, LeftHist: hist(2), RightHist: hist(5)},
		},
	}
}

// TestDecodeQueryMatchesOracle runs the generated queries, every
// truncation of a query with histograms, and that query with hostile
// bytes at every offset through both decoders.
func TestDecodeQueryMatchesOracle(t *testing.T) {
	for _, q := range testQueries(t) {
		checkDecodeMatchesOracle(t, EncodeQuery(q))
	}
	full := EncodeQuery(histogramQuery())
	for n := 0; n <= len(full); n++ {
		frame := append([]byte(nil), full[:n]...)
		if n >= headerSize {
			FinishFrame(frame, 0) // a consistent length, so the payload itself is read
		}
		checkDecodeMatchesOracle(t, frame)
	}
	// Hostile counts and markers at every byte of the payload.
	for i := headerSize; i < len(full); i++ {
		for _, v := range []byte{0, 2, 0x7f, 0xff} {
			frame := append([]byte(nil), full...)
			frame[i] = v
			checkDecodeMatchesOracle(t, frame)
		}
	}
}

// FuzzDecodeQueryDifferential compares DecodeQuery with the oracle on
// arbitrary bytes, seeded with the FuzzWire* corpora.
func FuzzDecodeQueryDifferential(f *testing.F) {
	fuzzSeeds(f, KindQuery)
	fuzzSeeds(f, KindResponse)
	for _, q := range testQueries(f) {
		f.Add(EncodeQuery(q))
	}
	f.Add(EncodeQuery(histogramQuery()))
	f.Fuzz(checkDecodeMatchesOracle)
}

// TestDecodeQueryAllocations pins one allocation per lane in use: five
// for the 20-join smoke query (query, relations, names, selections,
// predicates), seven once histograms are present.
func TestDecodeQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	smoke := EncodeQuery(workload.Default().Generate(20, rand.New(rand.NewSource(42))))
	hists := EncodeQuery(histogramQuery())
	for _, c := range []struct {
		name  string
		frame []byte
		want  float64
	}{{"smoke", smoke, 5}, {"histograms", hists, 7}} {
		if _, err := DecodeQuery(c.frame); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = DecodeQuery(c.frame) }); got != c.want {
			t.Errorf("%s: DecodeQuery allocated %v times, want %v", c.name, got, c.want)
		}
	}
}

// BenchmarkDecodeQuery20 is qfile's BenchmarkDecode20 over the wire
// codec: the 20-join smoke query, decoded, validated and normalized.
func BenchmarkDecodeQuery20(b *testing.B) {
	enc := EncodeQuery(workload.Default().Generate(20, rand.New(rand.NewSource(42))))
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeQuery(enc); err != nil {
			b.Fatal(err)
		}
	}
}
