package plan

import (
	"math"
	"math/rand"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/faultinject"
	"joinopt/internal/joingraph"
	"joinopt/internal/workload"
)

// overflowQuery is a chain of n relations of 1e18 tuples joined with
// selectivity 1: intermediate sizes pass MaxFloat64 after ~17 joins, so
// every later size, join cost and running total is +Inf.
func overflowQuery(n int) *catalog.Query {
	q := &catalog.Query{}
	for i := 0; i < n; i++ {
		q.Relations = append(q.Relations, catalog.Relation{Cardinality: 1e18})
	}
	for i := 1; i < n; i++ {
		q.Predicates = append(q.Predicates, catalog.Predicate{
			Left: catalog.RelID(i - 1), Right: catalog.RelID(i), Selectivity: 1,
		})
	}
	q.Normalize()
	return q
}

func newTrail(n int) Trail {
	return Trail{Size: make([]float64, n), Total: make([]float64, n)}
}

// randomValid draws a valid permutation by a uniform frontier walk.
func randomValid(rng *rand.Rand, g *joingraph.Graph) Perm {
	n := g.NumVertices()
	p := Perm{catalog.RelID(rng.Intn(n))}
	in := joingraph.NewBitset(n)
	in.Set(p[0])
	for len(p) < n {
		var frontier []catalog.RelID
		for r := catalog.RelID(0); int(r) < n; r++ {
			if !in.Test(r) && g.JoinsInto(r, in) {
				frontier = append(frontier, r)
			}
		}
		r := frontier[rng.Intn(len(frontier))]
		p = append(p, r)
		in.Set(r)
	}
	return p
}

// move applies a random swap or insert to a copy of p and returns it
// with the first position it changed, as the search space's moves do.
func move(rng *rand.Rand, p Perm) (Perm, int) {
	q := p.Clone()
	n := len(q)
	i := rng.Intn(n)
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	if rng.Intn(2) == 0 {
		q[i], q[j] = q[j], q[i]
		return q, min(i, j)
	}
	r := q[i]
	if i < j {
		copy(q[i:j], q[i+1:j+1])
	} else {
		copy(q[j+1:i+1], q[j:i])
	}
	q[j] = r
	return q, min(i, j)
}

// TestCostFromMatchesCost is the differential test of resumed pricing:
// along random walks of swap and insert moves over valid permutations,
// pricing each candidate from its first changed position off the
// current state's trail returns Cost's result bit for bit and charges
// the same units — also when a fault injector rewrites totals to
// NaN/±Inf and when sizes overflow to +Inf.
func TestCostFromMatchesCost(t *testing.T) {
	cases := []struct {
		name   string
		query  func(rng *rand.Rand) *catalog.Query
		faults bool
	}{
		{"default", func(rng *rand.Rand) *catalog.Query {
			return workload.Default().Generate(5+rng.Intn(30), rng)
		}, false},
		{"faults", func(rng *rand.Rand) *catalog.Query {
			return workload.Default().Generate(5+rng.Intn(30), rng)
		}, true},
		{"overflow", func(rng *rand.Rand) *catalog.Query {
			return overflowQuery(20 + rng.Intn(10))
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sawInf := false
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				q := tc.query(rng)
				g := joingraph.New(q)
				st := estimate.NewStats(q, g)
				fullBudget, resBudget := cost.Unlimited(), cost.Unlimited()
				full := NewEvaluator(st, cost.NewMemoryModel(), fullBudget)
				res := NewEvaluator(st, cost.NewMemoryModel(), resBudget)
				check := NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited())
				var fullFaults, resFaults *faultinject.Injector
				if tc.faults {
					cfg := faultinject.Config{NaNEvery: 5, InfEvery: 3}
					fullFaults, resFaults = faultinject.New(cfg), faultinject.New(cfg)
					full.SetFaultInjector(fullFaults)
					res.SetFaultInjector(resFaults)
				}
				n := q.NumRelations()
				p := randomValid(rng, g)
				cur := newTrail(n)
				same := func(step int, q Perm, from int, tr Trail) {
					t.Helper()
					before := [2]int64{fullBudget.Used(), resBudget.Used()}
					want := full.Cost(q)
					got := res.CostFrom(q, from, tr)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d: CostFrom(%v, %d) = %v (%#x), Cost = %v (%#x)",
							seed, step, q, from, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if df, dr := fullBudget.Used()-before[0], resBudget.Used()-before[1]; df != dr {
						t.Fatalf("seed %d step %d: CostFrom charged %d units, Cost %d", seed, step, dr, df)
					}
					sawInf = sawInf || math.IsInf(want, 1)
				}
				same(-1, p, 0, cur)
				for step := 0; step < 100; step++ {
					cand, low := move(rng, p)
					if !check.Valid(cand) {
						continue
					}
					next := newTrail(n)
					copy(next.Size[:low], cur.Size[:low])
					copy(next.Total[:low], cur.Total[:low])
					same(step, cand, low, next)
					if rng.Intn(2) == 0 {
						p, cur = cand, next
					}
				}
				if tc.faults && fullFaults.Evals() != resFaults.Evals() {
					t.Fatalf("seed %d: fault injector consulted %d times by CostFrom, %d by Cost",
						seed, resFaults.Evals(), fullFaults.Evals())
				}
			}
			if (tc.faults || tc.name == "overflow") && !sawInf {
				t.Fatal("no +Inf total was compared; the case lost its point")
			}
		})
	}
}
