package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"joinopt/internal/cost"
	"joinopt/internal/workload"
)

// trajectoryDigest pins the search trajectories themselves across
// commits. TestGoldenDeterminism compares two runs of one binary; this
// digest compares against a value recorded when the trajectories were
// last deliberately changed, so a speed-up that moves a single plan,
// cost bit or budget unit anywhere in the search fails here instead of
// surfacing only in a full EXPERIMENTS.md regeneration.
//
// Regenerate only for a change that is meant to move trajectories, and
// say so in the change description.
const trajectoryDigest = "59a5b02613611eabcb8334e634e1ff7c6cced825ade172e323177aeada681e98"

// trajectoryMethods is every strategy that runs a search: the paper's
// nine plus the 2PO, PW, GA and TS extensions.
var trajectoryMethods = append(append([]Method{}, Methods...), TPO, PW, GA, TS)

// TestSearchTrajectoryDigest hashes the final order, the bits of the
// total cost and the budget units consumed of every trajectory method
// on 40 default-workload queries with N 5–30, each at t = 0.5 and t = 9.
func TestSearchTrajectoryDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < 40; i++ {
		n := 5 + i%26
		q := workload.Default().Generate(n, rand.New(rand.NewSource(int64(1000+i))))
		for _, tc := range []float64{0.5, 9} {
			for _, m := range trajectoryMethods {
				budget := cost.NewBudget(cost.UnitsFor(tc, n))
				opt, err := NewOptimizer(q.Clone(), cost.NewMemoryModel(), budget,
					rand.New(rand.NewSource(int64(i))), Options{})
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				pl, err := opt.Run(m)
				if err != nil {
					t.Fatalf("query %d, t=%g, %v: %v", i, tc, m, err)
				}
				put(uint64(m))
				put(uint64(i))
				put(math.Float64bits(tc))
				order := pl.Order()
				put(uint64(len(order)))
				for _, r := range order {
					put(uint64(r))
				}
				put(math.Float64bits(pl.TotalCost))
				put(uint64(budget.Used()))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != trajectoryDigest {
		t.Fatalf("search trajectory digest %s, want %s: a change moved a plan, a cost bit or a budget charge", got, trajectoryDigest)
	}
}
