package greedy

import (
	"math"
	"math/rand"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/workload"
)

var benchSink float64

// BenchmarkGreedyPlan20 is the Tier-1 steady-state number: replanning
// the smoke workload's 20-join query (21 relations, same generator seed
// as serve's TestSmokeEndToEnd) from its eight smallest relations under
// both criteria, with 0 allocs/op — the planner is built once and every
// Plan call reuses its buffers. Budgeted in ALLOC_BUDGETS.json.
func BenchmarkGreedyPlan20(b *testing.B) { benchmarkPlan(b, 20) }

// BenchmarkGreedyPlan100 is the same at the paper's largest N.
func BenchmarkGreedyPlan100(b *testing.B) { benchmarkPlan(b, 100) }

func benchmarkPlan(b *testing.B, joins int) {
	q := workload.Default().Generate(joins, rand.New(rand.NewSource(42)))
	p, err := New(q, cost.NewMemoryModel())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = p.Plan().TotalCost
	}
}

// BenchmarkGreedyColdPlan20 prices the cold path the tier orchestrator
// actually pays on a cache miss: construct the planner and plan once.
// Construction allocates by design (CSR adjacency, scratch buffers);
// the budget ceiling guards against accidental bloat, not zero.
func BenchmarkGreedyColdPlan20(b *testing.B) { benchmarkColdPlan(b, 20) }

// BenchmarkGreedyColdPlan100 is the same at the paper's largest N.
func BenchmarkGreedyColdPlan100(b *testing.B) { benchmarkColdPlan(b, 100) }

func benchmarkColdPlan(b *testing.B, joins int) {
	q := workload.Default().Generate(joins, rand.New(rand.NewSource(42)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(q, cost.NewMemoryModel())
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p.Plan().TotalCost
	}
}

// BenchmarkGreedyColdMix is the cold path over miss-overflow's sizes:
// greedy.New plus one Plan, under one shared model as the tier
// orchestrator plans, for each of 64 fixed workload.Default() queries
// whose join counts are drawn uniformly from 8–40, as bench/ draws a
// miss-overflow shape. Budgeted in ALLOC_BUDGETS.json.
func BenchmarkGreedyColdMix(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	qs := make([]*catalog.Query, 64)
	for i := range qs {
		qs[i] = workload.Default().Generate(8+rng.Intn(33), rng)
	}
	model := cost.NewMemoryModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			p, err := New(q, model)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = p.Plan().TotalCost
		}
	}
}

// BenchmarkGreedyStart20 grows one min-cost order of
// BenchmarkGreedyPlan20's query from its smallest relation: the
// per-start cost Plan pays up to eight times under minCost.
func BenchmarkGreedyStart20(b *testing.B) {
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	p, err := New(q, cost.NewMemoryModel())
	if err != nil {
		b.Fatal(err)
	}
	var starts [numStarts]catalog.RelID
	lo, hi := int(p.compOff[0]), int(p.compOff[1])
	p.smallest(p.comps[lo:hi], &starts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchSink, _ = p.grow(lo, hi, starts[0], math.Inf(1), minCost)
	}
}

// TestPlanSteadyStateZeroAllocs asserts the 0 allocs/op contract
// directly in the unit suite (the allocgate benchmark gate enforces it
// in CI too, but this fails faster and locally). Skipped under -race:
// the race runtime instruments allocations.
func TestPlanSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	p, err := New(q, cost.NewMemoryModel())
	if err != nil {
		t.Fatal(err)
	}
	p.Plan() // warm: first call touches every buffer
	allocs := testing.AllocsPerRun(100, func() {
		benchSink = p.Plan().TotalCost
	})
	if allocs != 0 {
		//ljqlint:allow floatsafe -- comparing an allocation count against the constant zero
		t.Fatalf("Plan allocates %.0f allocs/op in steady state, want 0", allocs)
	}
}
