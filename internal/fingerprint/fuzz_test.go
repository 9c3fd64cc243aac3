package fingerprint

import (
	"math/rand"
	"testing"

	"joinopt/internal/workload"
)

// FuzzFingerprintPermutation fuzzes the plan cache's key invariant:
// relabeling a query's relations (and shuffling its predicate list)
// must not change the canonical fingerprint, and the canonical order
// returned with it must map the relabeled query onto the same
// canonical form. The fuzzer drives the query generator and the
// permutation from its own entropy, so it explores corners (repeated
// cardinalities, symmetric shapes) that the fixed-seed table test
// does not.
func FuzzFingerprintPermutation(f *testing.F) {
	f.Add(int64(1), uint8(5), int64(42))
	f.Add(int64(7), uint8(2), int64(0))
	f.Add(int64(-3), uint8(30), int64(99))
	f.Add(int64(0), uint8(1), int64(1))

	f.Fuzz(func(t *testing.T, qSeed int64, sz uint8, permSeed int64) {
		n := 2 + int(sz%30)
		q := workload.Default().Generate(n, rand.New(rand.NewSource(qSeed)))
		fp, order := Canonical(q)
		if len(order) != len(q.Relations) {
			t.Fatalf("canonical order covers %d of %d relations", len(order), len(q.Relations))
		}

		rng := rand.New(rand.NewSource(permSeed))
		perm := rng.Perm(len(q.Relations))
		relabeled := permute(q, perm, rng)
		relabeled.Normalize()

		fp2, order2 := Canonical(relabeled)
		if fp != fp2 {
			t.Fatalf("fingerprint changed under relabeling:\n  %s\n  %s\n(perm %v)", fp, fp2, perm)
		}
		if len(order2) != len(order) {
			t.Fatalf("canonical order length drifted: %d vs %d", len(order2), len(order))
		}

		// The two canonical queries must be structurally identical: the
		// whole point of canonicalization is that isomorphic queries
		// collapse to one cache entry.
		cq1 := Relabel(q, order)
		cq2 := Relabel(relabeled, order2)
		if len(cq1.Relations) != len(cq2.Relations) || len(cq1.Predicates) != len(cq2.Predicates) {
			t.Fatalf("canonical forms differ in size")
		}
		for i := range cq1.Relations {
			if cq1.Relations[i].Cardinality != cq2.Relations[i].Cardinality {
				t.Fatalf("canonical relation %d cardinality differs: %d vs %d",
					i, cq1.Relations[i].Cardinality, cq2.Relations[i].Cardinality)
			}
		}
	})
}
