package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"joinopt/internal/cost"
	"joinopt/internal/fingerprint"
	"joinopt/internal/greedy"
	"joinopt/internal/telemetry"
	"joinopt/internal/testutil"
	"joinopt/internal/workload"
)

// benchRun executes one fully budgeted IAI optimization with the given
// tracer. The budget, not the tracer, bounds the work, so the two
// benchmarks below do identical search; the delta is pure
// instrumentation overhead.
func benchRun(b *testing.B, tr *telemetry.Tracer) {
	b.Helper()
	q := testutil.BenchQuery(20, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		budget := cost.NewBudget(cost.UnitsFor(2, 20))
		opt, err := NewOptimizer(q.Clone(), cost.NewMemoryModel(), budget,
			rand.New(rand.NewSource(1)), Options{Trace: tr})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Run(IAI); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunNilTracer is the zero-overhead baseline: the emission
// sites compile to one nil pointer check each. Compare against
// BenchmarkRunActiveTracer to price the instrumentation itself.
func BenchmarkRunNilTracer(b *testing.B) { benchRun(b, nil) }

// BenchmarkRunActiveTracer prices full move-level tracing (ring
// append under a mutex per event).
func BenchmarkRunActiveTracer(b *testing.B) {
	benchRun(b, telemetry.NewTracer(telemetry.DefaultTraceCapacity))
}

// BenchmarkUpgradeIAI20 prices one background Tier-2 upgrade exactly as
// ljqd runs it on a cache miss: IAI at t = 9 with seed 1 over the
// canonical relabeling of the 20-join smoke query, warm-started from
// the greedy order. Like the upgrade, every iteration plans the one
// relabeled query, which NewOptimizer and the search leave unchanged
// (checked before the timed loop). Budgeted in ALLOC_BUDGETS.json;
// timings live in BENCH_search.json.
func BenchmarkUpgradeIAI20(b *testing.B) {
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	_, order := fingerprint.Canonical(q)
	cq := fingerprint.Relabel(q, order)
	g, err := greedy.New(cq.Clone(), cost.NewMemoryModel())
	if err != nil {
		b.Fatal(err)
	}
	incumbent := g.Plan().ToPlan().Order()
	ctx := context.Background()
	upgrade := func() {
		budget := cost.NewBudget(cost.UnitsFor(9, 20))
		opt, err := NewOptimizer(cq, cost.NewMemoryModel(), budget,
			rand.New(rand.NewSource(1)), Options{Incumbent: incumbent})
		if err != nil {
			b.Fatal(err)
		}
		pl, err := opt.RunContext(ctx, IAI)
		if err != nil || pl.Degraded {
			b.Fatalf("upgrade failed: %v", err)
		}
	}
	before := cq.Clone()
	upgrade()
	if !reflect.DeepEqual(cq, before) {
		b.Fatal("the upgrade changed its query")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upgrade()
	}
}
