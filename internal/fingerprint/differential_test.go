package fingerprint

import (
	"math/rand"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/workload"
)

// The differential equivalence suite: the zero-alloc bitset/CSR
// fingerprint path (fingerprint.go) against the frozen pre-rewrite
// implementation (legacy.go). The rewrite's contract is byte-identical
// digests and identical canonical orders — cached plans and persisted
// snapshots written before the rewrite must stay valid — so every
// divergence here is a release blocker, not a flake.

// diffQueries generates the equivalence corpus: every canonical shape
// (chain, star, cycle, clique, grid) at sizes up to 60 relations, plus
// random queries from the default and benchmark workload specs. Shapes
// matter because they pin the symmetric cases (star leaves, cycle
// rotations, clique automorphisms) where individualization-refinement
// does real work and the IR budget actually decrements.
func diffQueries(t testing.TB) []*catalog.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	var qs []*catalog.Query
	spec := workload.Default()
	for _, shape := range workload.Shapes {
		for _, n := range []int{2, 3, 5, 12, 30, 60} {
			q, err := spec.GenerateShape(shape, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
	}
	for _, bench := range []int{0, 7, 8, 9} { // default, dense, star, chain
		s := spec
		if bench != 0 {
			var err error
			s, err = workload.Benchmark(bench)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{3, 10, 25, 60} {
			qs = append(qs, s.Generate(n, rng))
		}
	}
	return qs
}

// TestDifferentialDigests: the live path and the frozen legacy path
// produce the same fingerprint and the same canonical order for every
// corpus query.
func TestDifferentialDigests(t *testing.T) {
	for qi, q := range diffQueries(t) {
		gotF, gotOrd := Canonical(q)
		wantF, wantOrd := LegacyCanonical(q)
		if gotF != wantF {
			t.Fatalf("query %d (n=%d): digest mismatch: new %s, legacy %s",
				qi, len(q.Relations), gotF.Short(), wantF.Short())
		}
		if len(gotOrd) != len(wantOrd) {
			t.Fatalf("query %d: order length %d != %d", qi, len(gotOrd), len(wantOrd))
		}
		for i := range gotOrd {
			if gotOrd[i] != wantOrd[i] {
				t.Fatalf("query %d: canonical order diverges at %d: new %v, legacy %v",
					qi, i, gotOrd, wantOrd)
			}
		}
	}
}

// TestDifferentialRelabeling: the canonically relabeled queries are
// identical between paths — same relations in the same order, same
// sorted predicate list, statistic for statistic.
func TestDifferentialRelabeling(t *testing.T) {
	for qi, q := range diffQueries(t) {
		_, order := Canonical(q)
		gotQ := Relabel(q, order)
		_, _, wantQ := LegacyCanonicalQuery(q)
		if len(gotQ.Relations) != len(wantQ.Relations) || len(gotQ.Predicates) != len(wantQ.Predicates) {
			t.Fatalf("query %d: relabeled sizes differ", qi)
		}
		for i := range gotQ.Relations {
			if gotQ.Relations[i].Name != wantQ.Relations[i].Name ||
				gotQ.Relations[i].Cardinality != wantQ.Relations[i].Cardinality {
				t.Fatalf("query %d: relation %d differs: %+v vs %+v",
					qi, i, gotQ.Relations[i], wantQ.Relations[i])
			}
		}
		for i := range gotQ.Predicates {
			gp, wp := gotQ.Predicates[i], wantQ.Predicates[i]
			if gp.Left != wp.Left || gp.Right != wp.Right ||
				gp.Selectivity != wp.Selectivity ||
				gp.LeftDistinct != wp.LeftDistinct || gp.RightDistinct != wp.RightDistinct {
				t.Fatalf("query %d: predicate %d differs: %+v vs %+v", qi, i, gp, wp)
			}
		}
	}
}

// TestDifferentialUnderPermutation: both paths agree on every random
// relabeling of every corpus query (and, transitively with
// TestRelabelInvariance, stay equal to the original's digest).
func TestDifferentialUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for qi, q := range diffQueries(t) {
		if len(q.Relations) > 30 {
			continue // permutation trials at the large sizes add time, not coverage
		}
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(len(q.Relations))
			qp := permute(q, perm, rng)
			if got, want := Of(qp), LegacyOf(qp); got != want {
				t.Fatalf("query %d trial %d: permuted digest mismatch: new %s, legacy %s",
					qi, trial, got.Short(), want.Short())
			}
		}
	}
}

// TestDifferentialUnderMutation: after a single-statistic mutation the
// two paths still agree (both must move to the same new digest — the
// sensitivity property itself is TestMutationSensitivity, which runs
// against the live path).
func TestDifferentialUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for qi, q := range diffQueries(t) {
		qm := q.Clone()
		switch qi % 3 {
		case 0:
			qm.Relations[rng.Intn(len(qm.Relations))].Cardinality += 17
		case 1:
			p := &qm.Predicates[rng.Intn(len(qm.Predicates))]
			p.Selectivity = p.Selectivity*0.5 + 1e-7
		case 2:
			p := &qm.Predicates[rng.Intn(len(qm.Predicates))]
			p.LeftDistinct += 3
		}
		if got, want := Of(qm), LegacyOf(qm); got != want {
			t.Fatalf("query %d: mutated digest mismatch: new %s, legacy %s",
				qi, got.Short(), want.Short())
		}
	}
}

// TestHasherReuseAcrossSizes: one Hasher fed queries of wildly varying
// sizes (buffer grow/shrink churn) returns exactly what fresh Hashers
// return. This is the pool-hygiene property the sync.Pool path rests
// on.
func TestHasherReuseAcrossSizes(t *testing.T) {
	h := NewHasher()
	var order []catalog.RelID
	qs := diffQueries(t)
	// Interleave large and small so the reused buffers are repeatedly
	// larger than the query needs (stale-tail bugs surface here).
	for pass := 0; pass < 2; pass++ {
		for i := len(qs) - 1; i >= 0; i-- {
			q := qs[i]
			var gotF Fingerprint
			gotF, order = h.Canonical(q, order)
			wantF, wantOrd := LegacyCanonical(q)
			if gotF != wantF {
				t.Fatalf("pass %d query %d: reused-hasher digest %s != fresh %s",
					pass, i, gotF.Short(), wantF.Short())
			}
			for j := range order {
				if order[j] != wantOrd[j] {
					t.Fatalf("pass %d query %d: reused-hasher order %v != fresh %v",
						pass, i, order, wantOrd)
				}
			}
		}
	}
}

// TestOfDoesNotMutateQuery: the zero-clone hot path must leave the
// caller's query untouched, including denormalized predicates (Left >
// Right, zero selectivity) that the legacy path handled by cloning.
func TestOfDoesNotMutateQuery(t *testing.T) {
	q := &catalog.Query{
		Relations: []catalog.Relation{
			{Cardinality: 100}, {Cardinality: 2000}, {Cardinality: 30},
		},
		Predicates: []catalog.Predicate{
			// Deliberately denormalized: Right < Left, Selectivity unset.
			{Left: 2, Right: 0, LeftDistinct: 10, RightDistinct: 40},
			{Left: 1, Right: 2, Selectivity: 0.25},
		},
	}
	snap := q.Clone()
	_ = Of(q)
	_, _ = Canonical(q)
	for i := range q.Predicates {
		if q.Predicates[i] != snap.Predicates[i] {
			t.Fatalf("predicate %d mutated: %+v, was %+v", i, q.Predicates[i], snap.Predicates[i])
		}
	}
	for i := range q.Relations {
		if q.Relations[i].Cardinality != snap.Relations[i].Cardinality {
			t.Fatalf("relation %d mutated", i)
		}
	}
	// And the digest must equal the normalized form's (Of normalizes
	// internally, exactly like the legacy clone+normalize did).
	if got, want := Of(q), LegacyOf(q); got != want {
		t.Fatalf("denormalized query digest mismatch: new %s, legacy %s", got.Short(), want.Short())
	}
}
