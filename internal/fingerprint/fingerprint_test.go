package fingerprint

import (
	"math/rand"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/workload"
)

// permute relabels q under perm (new id = perm[old id]), shuffles the
// predicate list, and re-normalizes — an isomorphic copy with fully
// scrambled labels and edge order.
func permute(q *catalog.Query, perm []int, rng *rand.Rand) *catalog.Query {
	out := &catalog.Query{
		Relations:  make([]catalog.Relation, len(q.Relations)),
		Predicates: make([]catalog.Predicate, len(q.Predicates)),
	}
	for old, rel := range q.Relations {
		r := rel
		r.Selections = append([]catalog.Selection(nil), rel.Selections...)
		out.Relations[perm[old]] = r
	}
	for i, p := range q.Predicates {
		np := p
		np.Left = catalog.RelID(perm[p.Left])
		np.Right = catalog.RelID(perm[p.Right])
		np.Normalize()
		out.Predicates[i] = np
	}
	rng.Shuffle(len(out.Predicates), func(a, b int) {
		out.Predicates[a], out.Predicates[b] = out.Predicates[b], out.Predicates[a]
	})
	return out
}

func genQueries(t *testing.T) []*catalog.Query {
	t.Helper()
	var qs []*catalog.Query
	rng := rand.New(rand.NewSource(7))
	for _, spec := range []int{0, 7, 8, 9} { // default, dense, star, chain
		s := workload.Default()
		if spec != 0 {
			var err error
			s, err = workload.Benchmark(spec)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{3, 10, 25} {
			qs = append(qs, s.Generate(n, rng))
		}
	}
	return qs
}

// TestRelabelInvariance: fingerprints are invariant under random RelID
// permutations and join-edge reordering (the property the plan cache
// key rests on).
func TestRelabelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for qi, q := range genQueries(t) {
		want := Of(q)
		for trial := 0; trial < 8; trial++ {
			perm := rng.Perm(len(q.Relations))
			qp := permute(q, perm, rng)
			if got := Of(qp); got != want {
				t.Fatalf("query %d trial %d: permuted fingerprint %s != original %s",
					qi, trial, got.Short(), want.Short())
			}
		}
	}
}

// TestMutationSensitivity: any single statistic or shape mutation
// changes the fingerprint.
func TestMutationSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for qi, q := range genQueries(t) {
		want := Of(q)
		// Mutate one relation cardinality.
		m := q.Clone()
		ri := rng.Intn(len(m.Relations))
		m.Relations[ri].Cardinality += 17
		if Of(m) == want {
			t.Fatalf("query %d: cardinality mutation did not change fingerprint", qi)
		}
		// Mutate (or add) one selection selectivity.
		m = q.Clone()
		if len(m.Relations[ri].Selections) > 0 {
			m.Relations[ri].Selections[0].Selectivity *= 0.5
		} else {
			m.Relations[ri].Selections = append(m.Relations[ri].Selections,
				catalog.Selection{Selectivity: 0.25})
		}
		if Of(m) == want {
			t.Fatalf("query %d: selection mutation did not change fingerprint", qi)
		}
		if len(q.Predicates) > 0 {
			pi := rng.Intn(len(q.Predicates))
			// Mutate a join selectivity.
			m = q.Clone()
			m.Normalize() // fill derived selectivity, then perturb it
			m.Predicates[pi].Selectivity = m.Predicates[pi].Selectivity * 0.5
			if Of(m) == want {
				t.Fatalf("query %d: join-selectivity mutation did not change fingerprint", qi)
			}
			// Mutate a distinct count.
			m = q.Clone()
			m.Predicates[pi].LeftDistinct += 3
			if Of(m) == want {
				t.Fatalf("query %d: distinct-count mutation did not change fingerprint", qi)
			}
			// Remove an edge (keeping the query valid is not required for
			// hashing, but dropping a non-bridge edge keeps it connected
			// often enough; fingerprinting does not validate).
			m = q.Clone()
			m.Predicates = append(m.Predicates[:pi], m.Predicates[pi+1:]...)
			if Of(m) == want {
				t.Fatalf("query %d: edge removal did not change fingerprint", qi)
			}
		}
		// Add an edge between two previously-unlinked relations, if any.
		m = q.Clone()
		if added := addFreshEdge(m); added && Of(m) == want {
			t.Fatalf("query %d: edge addition did not change fingerprint", qi)
		}
	}
}

func addFreshEdge(q *catalog.Query) bool {
	linked := make(map[[2]catalog.RelID]bool)
	for _, p := range q.Predicates {
		linked[[2]catalog.RelID{p.Left, p.Right}] = true
	}
	n := catalog.RelID(len(q.Relations))
	for a := catalog.RelID(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !linked[[2]catalog.RelID{a, b}] {
				q.Predicates = append(q.Predicates, catalog.Predicate{
					Left: a, Right: b, Selectivity: 0.3,
				})
				return true
			}
		}
	}
	return false
}

// TestSymmetricTies: a star with identical leaves is maximally
// symmetric (WL refinement cannot split the leaves); the
// individualization stage must still produce identical fingerprints
// for relabelings, and the canonical order must be a permutation.
func TestSymmetricTies(t *testing.T) {
	star := &catalog.Query{}
	star.Relations = append(star.Relations, catalog.Relation{Name: "hub", Cardinality: 1000})
	for i := 0; i < 6; i++ {
		star.Relations = append(star.Relations, catalog.Relation{Name: "leaf", Cardinality: 50})
		star.Predicates = append(star.Predicates, catalog.Predicate{
			Left: 0, Right: catalog.RelID(i + 1), LeftDistinct: 100, RightDistinct: 10,
		})
	}
	want := Of(star)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(star.Relations))
		if got := Of(permute(star, perm, rng)); got != want {
			t.Fatalf("trial %d: symmetric star relabeling changed fingerprint", trial)
		}
	}
	_, order := Canonical(star)
	seen := make([]bool, len(star.Relations))
	for _, r := range order {
		if int(r) >= len(seen) || seen[r] {
			t.Fatalf("canonical order %v is not a permutation", order)
		}
		seen[r] = true
	}
}

// TestCanonicalQueryIsomorphismFixed: the canonical query of any
// relabeling is statistically identical — optimizing it makes the plan
// a function of the fingerprint alone.
func TestCanonicalQueryIsomorphismFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := workload.Default().Generate(15, rng)
	_, order := Canonical(q)
	base := Relabel(q, order)
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(q.Relations))
		pq := permute(q, perm, rng)
		fp, porder := Canonical(pq)
		cq := Relabel(pq, porder)
		if fp != Of(q) {
			t.Fatalf("trial %d: fingerprint drifted", trial)
		}
		if len(cq.Relations) != len(base.Relations) || len(cq.Predicates) != len(base.Predicates) {
			t.Fatalf("trial %d: canonical query shape differs", trial)
		}
		for i := range cq.Relations {
			if cq.Relations[i].Cardinality != base.Relations[i].Cardinality {
				t.Fatalf("trial %d: canonical relation %d cardinality %d != %d",
					trial, i, cq.Relations[i].Cardinality, base.Relations[i].Cardinality)
			}
		}
		for i := range cq.Predicates {
			a, b := cq.Predicates[i], base.Predicates[i]
			if a.Left != b.Left || a.Right != b.Right {
				t.Fatalf("trial %d: canonical predicate %d endpoints (%d,%d) != (%d,%d)",
					trial, i, a.Left, a.Right, b.Left, b.Right)
			}
		}
	}
}

// TestParseRoundTrip covers the hex codec.
func TestParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := Of(workload.Default().Generate(5, rng))
	got, err := Parse(f.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatalf("round trip mismatch")
	}
	if _, err := Parse("zz"); err == nil {
		t.Fatal("Parse accepted invalid hex")
	}
	if _, err := Parse("ab"); err == nil {
		t.Fatal("Parse accepted short input")
	}
	if len(f.Short()) != 16 {
		t.Fatalf("Short() length %d != 16", len(f.Short()))
	}
}

// TestDeterminism: same query, repeated hashing, identical result (no
// map-order or allocation-order leakage).
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := workload.Default().Generate(30, rng)
	want := Of(q)
	for i := 0; i < 20; i++ {
		if Of(q) != want {
			t.Fatal("fingerprint is not deterministic across calls")
		}
	}
}

// TestCanonicalAllocatesOnlyTheOrder: Canonical's one allocation is
// the order it returns, sized once.
func TestCanonicalAllocatesOnlyTheOrder(t *testing.T) {
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	_, order := Canonical(q)
	if len(order) != cap(order) || len(order) != len(q.Relations) {
		t.Fatalf("order len %d cap %d, want both %d", len(order), cap(order), len(q.Relations))
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled Hashers at random")
	}
	if allocs := testing.AllocsPerRun(100, func() { Canonical(q) }); allocs != 1 {
		t.Fatalf("Canonical allocated %v times, want 1", allocs)
	}
}

func BenchmarkFingerprint20(b *testing.B) { benchFingerprint(b, 20) }
func BenchmarkFingerprint60(b *testing.B) { benchFingerprint(b, 60) }

func benchFingerprint(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(29))
	q := workload.Default().Generate(n, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Of(q)
	}
}

// BenchmarkFingerprintBitset20/60 measure the steady-state hot path: a
// warm reusable Hasher fingerprinting the same query (the serving
// daemon's per-request shape, minus pool traffic). ALLOC_BUDGETS.json
// pins these at 0 allocs/op.
func BenchmarkFingerprintBitset20(b *testing.B) { benchFingerprintBitset(b, 20) }
func BenchmarkFingerprintBitset60(b *testing.B) { benchFingerprintBitset(b, 60) }

func benchFingerprintBitset(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(29))
	q := workload.Default().Generate(n, rng)
	h := NewHasher()
	h.Of(q) // warm the buffers: steady state is what the budget pins
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Of(q)
	}
}
