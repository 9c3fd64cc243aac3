// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), plus ablations of the design choices DESIGN.md calls
// out and micro-benchmarks of the hot paths.
//
// The experiment benches run at a reduced scale by default (results are
// reported as custom metrics, in mean scaled cost — the paper's unit).
// Set -benchtime=1x and read the metrics; use cmd/ljqbench -full for the
// paper's complete protocol.
package joinopt

import (
	"fmt"
	"math/rand"
	"testing"

	"joinopt/internal/bushy"
	"joinopt/internal/catalog"
	"joinopt/internal/core"
	"joinopt/internal/cost"
	"joinopt/internal/dp"
	"joinopt/internal/engine"
	"joinopt/internal/estimate"
	"joinopt/internal/experiment"
	"joinopt/internal/heuristics"
	"joinopt/internal/joingraph"
	"joinopt/internal/plan"
	"joinopt/internal/search"
	"joinopt/internal/workload"
)

// benchScale keeps the experiment benches fast while preserving the
// ordering among methods. Short mode shrinks further.
func benchScale(b *testing.B) experiment.Scale {
	if testing.Short() {
		return experiment.Scale{QueriesPerN: 1, Replicates: 1, Ns: []int{10, 20}}
	}
	return experiment.Scale{QueriesPerN: 3, Replicates: 1}
}

// runExperiment executes the config once per bench iteration and
// reports each (variant, final time coefficient) mean scaled cost as a
// custom metric.
func runExperiment(b *testing.B, cfg experiment.Config) {
	b.Helper()
	var m *experiment.Matrix
	var err error
	for i := 0; i < b.N; i++ {
		m, err = experiment.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(m.TimeCoeffs) - 1
	for v, name := range m.Variants {
		b.ReportMetric(m.Scaled[v][last], name+"@t"+trimFloat(m.TimeCoeffs[last]))
		b.ReportMetric(m.Scaled[v][0], name+"@t"+trimFloat(m.TimeCoeffs[0]))
	}
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }

// --- One bench per paper table / figure ---

// BenchmarkTable1 regenerates Table 1: the five augmentation chooseNext
// criteria (plus the IAI scaling anchor). Expected shape: criterion 3
// (min join selectivity) lowest among the criteria.
func BenchmarkTable1(b *testing.B) {
	runExperiment(b, experiment.Table1(benchScale(b), 1989))
}

// BenchmarkTable2 regenerates Table 2: the three KBZ spanning-tree
// weight criteria (plus the IAI anchor).
func BenchmarkTable2(b *testing.B) {
	runExperiment(b, experiment.Table2(benchScale(b), 1989))
}

// BenchmarkFigure4 regenerates Figure 4: all nine methods on the default
// benchmark under the main-memory model. Expected shape: IAI best at
// the 9N² limit, AGI best at the smallest limits, SA-family worst.
func BenchmarkFigure4(b *testing.B) {
	runExperiment(b, experiment.Figure4(benchScale(b), 1989))
}

// BenchmarkFigure5 regenerates Figure 5: the top five methods over the
// larger N = 10..100 benchmark.
func BenchmarkFigure5(b *testing.B) {
	sc := benchScale(b)
	if testing.Short() {
		sc.Ns = []int{10, 40}
	}
	runExperiment(b, experiment.Figure5(sc, 1989))
}

// BenchmarkFigure6 regenerates Figure 6: IAI vs AGI vs II at small time
// limits, where the AGI→IAI crossover lives.
func BenchmarkFigure6(b *testing.B) {
	sc := benchScale(b)
	if testing.Short() {
		sc.Ns = []int{10, 40}
	}
	runExperiment(b, experiment.Figure6(sc, 1989))
}

// BenchmarkFigure7 regenerates Figure 7: the top five methods under the
// disk (Grace hash join) cost model. Expected shape: same ordering as
// the memory model (§6.2's conclusion).
func BenchmarkFigure7(b *testing.B) {
	runExperiment(b, experiment.Figure7(benchScale(b), 1989))
}

// BenchmarkTable3 regenerates Table 3: the top five methods at 9N²
// across the nine §5 benchmark variations. One sub-bench per row.
func BenchmarkTable3(b *testing.B) {
	cfgs, err := experiment.Table3(benchScale(b), 1989)
	if err != nil {
		b.Fatal(err)
	}
	for i := range cfgs {
		cfg := cfgs[i]
		b.Run(fmt.Sprintf("bench%d_%s", i+1, cfg.Spec.Name), func(b *testing.B) {
			runExperiment(b, cfg)
		})
	}
}

// --- Ablations of design choices (DESIGN.md) ---

// BenchmarkAblationMoveSet compares the [SG88] swap-only move set with a
// mixed swap+insert set. Insert moves accelerate descent, which is why
// swap-only is the default: it preserves the paper's small-time-limit
// dynamics.
func BenchmarkAblationMoveSet(b *testing.B) {
	cfg := experiment.Figure6(benchScale(b), 77)
	cfg.Title = "ablation: move set"
	cfg.Variants = []experiment.Variant{
		{Name: "swap", Method: core.IAI},
		{Name: "swap+ins", Method: core.IAI, Opts: core.Options{InsertMoveProb: 0.5}},
	}
	runExperiment(b, cfg)
}

// BenchmarkAblationStopping probes the II local-minimum detection
// threshold (consecutive rejected moves as a fraction of the swap
// neighborhood).
func BenchmarkAblationStopping(b *testing.B) {
	cfg := experiment.Figure4(benchScale(b), 78)
	cfg.Title = "ablation: II stopping"
	cfg.Variants = nil
	for _, rf := range []float64{0.1, 0.5, 2.0} {
		cfg.Variants = append(cfg.Variants, experiment.Variant{
			Name:   fmt.Sprintf("rf%g", rf),
			Method: core.II,
			Opts: core.Options{IIConfig: search.IIConfig{
				RejectFactor: rf, MinRejects: 16,
			}},
		})
	}
	runExperiment(b, cfg)
}

// BenchmarkAblationUnitScale probes the budget calibration: the same
// comparison at one-third and at triple the standard budget, to show
// where the AGI→IAI crossover moves. (The work-unit scale multiplies
// the time coefficient, so scaling the coefficients is equivalent to
// scaling cost.UnitScale.)
func BenchmarkAblationUnitScale(b *testing.B) {
	for _, mult := range []float64{1.0 / 3, 1, 3} {
		b.Run(fmt.Sprintf("x%.2g", mult), func(b *testing.B) {
			cfg := experiment.Figure6(benchScale(b), 79)
			cfg.Title = "ablation: unit scale"
			for i := range cfg.TimeCoeffs {
				cfg.TimeCoeffs[i] *= mult
			}
			runExperiment(b, cfg)
		})
	}
}

// BenchmarkAblationCrossProduct measures what the postpone-cross-
// products heuristic buys: the cost of combining disconnected component
// results smallest-first (plan.Assemble) versus largest-first.
func BenchmarkAblationCrossProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(80))
	// Three disconnected chains of very different sizes.
	q := &catalog.Query{}
	sizes := []int64{20, 2000, 200000}
	var comps [][]catalog.RelID
	for _, s := range sizes {
		var comp []catalog.RelID
		base := len(q.Relations)
		for i := 0; i < 3; i++ {
			q.Relations = append(q.Relations, catalog.Relation{Cardinality: s})
			comp = append(comp, catalog.RelID(base+i))
		}
		for i := 0; i < 2; i++ {
			q.Predicates = append(q.Predicates, catalog.Predicate{
				Left: catalog.RelID(base + i), Right: catalog.RelID(base + i + 1),
				LeftDistinct: float64(s / 2), RightDistinct: float64(s / 2),
			})
		}
		comps = append(comps, comp)
	}
	q.Normalize()
	g := joingraph.New(q)
	st := estimate.NewStats(q, g)
	eval := plan.NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited())
	_ = rng

	var results []plan.Result
	for _, comp := range comps {
		perm, c, err := dp.Optimal(eval, comp)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, plan.Result{Perm: perm, Cost: c})
	}
	var smart, naive float64
	for i := 0; i < b.N; i++ {
		pl := plan.Assemble(eval, results)
		smart = pl.CrossCost
		// Largest-first: assemble in reverse of the smart order.
		rev := make([]plan.Result, len(pl.Components))
		for j := range pl.Components {
			rev[len(rev)-1-j] = pl.Components[j]
		}
		// Price naively by hand.
		naive = crossCostInOrder(eval, rev)
	}
	b.ReportMetric(naive/smart, "naive/smart")
}

func crossCostInOrder(e *plan.Evaluator, comps []plan.Result) float64 {
	sizeOf := func(p plan.Perm) float64 {
		pre := estimate.NewPrefix(e.Stats())
		for _, r := range p {
			pre.Extend(r)
		}
		return pre.Size()
	}
	total := 0.0
	acc := sizeOf(comps[0].Perm)
	for i := 1; i < len(comps); i++ {
		sz := sizeOf(comps[i].Perm)
		result := acc * sz
		total += e.Model().JoinCost(acc, sz, result)
		acc = result
	}
	return total
}

// --- Micro-benchmarks of the hot paths ---

func microFixture(n int) (*plan.Evaluator, *search.Space, plan.Perm) {
	q := workload.Default().Generate(n, rand.New(rand.NewSource(1)))
	g := joingraph.New(q)
	st := estimate.NewStats(q, g)
	eval := plan.NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited())
	sp := search.NewSpace(eval, g.Components()[0], rand.New(rand.NewSource(2)))
	return eval, sp, sp.RandomState()
}

func BenchmarkEvaluatorCost(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			eval, _, p := microFixture(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval.Cost(p)
			}
		})
	}
}

func BenchmarkRandomState(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			_, sp, _ := microFixture(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.RandomState()
			}
		})
	}
}

func BenchmarkNeighbor(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			_, sp, p := microFixture(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.Neighbor(p)
			}
		})
	}
}

func BenchmarkAugmentationState(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			eval, sp, _ := microFixture(n)
			aug := heuristics.NewAugmentation(eval, sp.Relations(), heuristics.CriterionMinSel)
			first := sp.Relations()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				aug.Generate(first)
			}
		})
	}
}

func BenchmarkKBZState(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			eval, sp, _ := microFixture(n)
			kbz := heuristics.NewKBZ(eval, sp.Relations(), heuristics.WeightSelectivity)
			root := sp.Relations()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kbz.Linearize(root)
			}
		})
	}
}

func BenchmarkDPOptimal(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			q := workload.Default().Generate(n, rand.New(rand.NewSource(3)))
			g := joingraph.New(q)
			st := estimate.NewStats(q, g)
			st.UseStaticSelectivity()
			eval := plan.NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited())
			comp := g.Components()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := dp.Optimal(eval, comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineHashJoin(b *testing.B) {
	q := &catalog.Query{
		Relations: []catalog.Relation{
			{Cardinality: 5000}, {Cardinality: 5000},
		},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, LeftDistinct: 1000, RightDistinct: 1000},
		},
	}
	db, err := engine.Generate(q, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(plan.Perm{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeEndToEnd measures one full public-API optimization at
// the default (9N²) budget.
func BenchmarkOptimizeEndToEnd(b *testing.B) {
	for _, n := range []int{20, 50} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			q, err := GenerateBenchmarkQuery(0, n, 5)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(q.Clone(), Options{Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBushyVsLinear probes the paper's §2 left-deep restriction at
// search scale: left-deep IAI vs bushy iterative improvement, same
// budget, static estimator. Metric: mean cost ratio (>1 = bushy won).
func BenchmarkBushyVsLinear(b *testing.B) {
	const n = 20
	var ratio float64
	for i := 0; i < b.N; i++ {
		sum, cnt := 0.0, 0
		for qi := int64(0); qi < 4; qi++ {
			q := workload.Default().Generate(n, rand.New(rand.NewSource(qi)))

			linBudget := cost.NewBudget(cost.UnitsFor(9, n))
			opt, err := core.NewOptimizer(q.Clone(), cost.NewMemoryModel(), linBudget,
				rand.New(rand.NewSource(qi+100)), core.Options{StaticEstimator: true})
			if err != nil {
				b.Fatal(err)
			}
			pl, err := opt.Run(core.IAI)
			if err != nil {
				b.Fatal(err)
			}

			g := joingraph.New(q)
			st := estimate.NewStats(q, g)
			st.UseStaticSelectivity()
			bsp := bushy.NewSpace(st, cost.NewMemoryModel(), cost.NewBudget(cost.UnitsFor(9, n)),
				g.Components()[0], rand.New(rand.NewSource(qi+200)))
			_, bc, ok := bsp.Improve(bushy.DefaultIIConfig())
			if !ok {
				continue
			}
			sum += pl.TotalCost / bc
			cnt++
		}
		ratio = sum / float64(cnt)
	}
	b.ReportMetric(ratio, "linear/bushy")
}

// BenchmarkLeftDeepGap reports the exact left-deep-vs-bushy optimality
// gap on small queries (DP on both spaces).
func BenchmarkLeftDeepGap(b *testing.B) {
	const n = 10
	var mean float64
	for i := 0; i < b.N; i++ {
		sum, cnt := 0.0, 0
		for qi := int64(0); qi < 5; qi++ {
			q := workload.Default().Generate(n, rand.New(rand.NewSource(qi)))
			g := joingraph.New(q)
			st := estimate.NewStats(q, g)
			st.UseStaticSelectivity()
			eval := plan.NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited())
			gap, err := dp.LeftDeepGap(eval, g.Components()[0])
			if err != nil {
				b.Fatal(err)
			}
			sum += gap
			cnt++
		}
		mean = sum / float64(cnt)
	}
	b.ReportMetric(mean, "gap")
}

// BenchmarkExtension2PO pits the post-paper 2PO strategy against IAI.
func BenchmarkExtension2PO(b *testing.B) {
	cfg := experiment.Figure4(benchScale(b), 81)
	cfg.Title = "extension: 2PO vs IAI vs SA"
	cfg.Variants = []experiment.Variant{
		{Name: "IAI", Method: core.IAI},
		{Name: "2PO", Method: core.TPO},
		{Name: "SA", Method: core.SA},
	}
	runExperiment(b, cfg)
}

// BenchmarkMultiMethod measures what per-join method choice buys: the
// same strategy under the hash-only model vs the auto (chooser) model,
// on its own terms (each run scaled within its own cost semantics, so
// the metric compares achievable plan quality ratios, not absolutes).
func BenchmarkMultiMethod(b *testing.B) {
	const n = 20
	var saved float64
	for i := 0; i < b.N; i++ {
		sum, cnt := 0.0, 0
		for qi := int64(0); qi < 4; qi++ {
			q := workload.Default().Generate(n, rand.New(rand.NewSource(qi+31)))
			auto := cost.NewChooser()
			optA, err := core.NewOptimizer(q.Clone(), auto, cost.NewBudget(cost.UnitsFor(9, n)),
				rand.New(rand.NewSource(qi)), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			plA, err := optA.Run(core.IAI)
			if err != nil {
				b.Fatal(err)
			}
			optH, err := core.NewOptimizer(q.Clone(), cost.NewMemoryModel(), cost.NewBudget(cost.UnitsFor(9, n)),
				rand.New(rand.NewSource(qi)), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			plH, err := optH.Run(core.IAI)
			if err != nil {
				b.Fatal(err)
			}
			// Re-price the hash-only plan under the auto model so the
			// comparison is apples-to-apples.
			evalA := plan.NewEvaluator(optA.Evaluator().Stats(), auto, cost.Unlimited())
			rep := 0.0
			for _, c := range plH.Components {
				rep += evalA.Cost(c.Perm)
			}
			if rep > 0 {
				sum += plA.TotalCost / rep
				cnt++
			}
		}
		saved = sum / float64(cnt)
	}
	b.ReportMetric(saved, "auto/hash")
}

// BenchmarkGOOQuality reports Greedy Operator Ordering's mean scaled
// cost against the exact bushy optimum on small queries (GOO is the
// strongest of the deterministic baselines here).
func BenchmarkGOOQuality(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		sum, cnt := 0.0, 0
		for qi := int64(0); qi < 6; qi++ {
			q := workload.Default().Generate(9, rand.New(rand.NewSource(qi+11)))
			g := joingraph.New(q)
			st := estimate.NewStats(q, g)
			st.UseStaticSelectivity()
			eval := plan.NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited())
			comp := g.Components()[0]
			_, opt, err := dp.BushyOptimal(eval, comp)
			if err != nil {
				b.Fatal(err)
			}
			sp := bushy.NewSpace(st, cost.NewMemoryModel(), cost.Unlimited(), comp, rand.New(rand.NewSource(qi)))
			_, c := sp.GOO()
			sum += c / opt
			cnt++
		}
		mean = sum / float64(cnt)
	}
	b.ReportMetric(mean, "goo/bushyOpt")
}

// BenchmarkIDP measures iterative DP's runtime and quality at k=3
// against the left-deep optimum on mid-size queries.
func BenchmarkIDP(b *testing.B) {
	q := workload.Default().Generate(14, rand.New(rand.NewSource(17)))
	g := joingraph.New(q)
	st := estimate.NewStats(q, g)
	st.UseStaticSelectivity()
	eval := plan.NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited())
	comp := g.Components()[0]
	_, opt, err := dp.Optimal(eval, comp)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, c, err := dp.IDP(eval, comp, 3)
		if err != nil {
			b.Fatal(err)
		}
		ratio = c / opt
	}
	b.ReportMetric(ratio, "idp/linearOpt")
}

// BenchmarkShapes compares IAI across canonical join-graph topologies
// at fixed N: stars have the largest valid-order space, chains the
// smallest. Metric: mean scaled cost vs the shape's own best-of-run.
func BenchmarkShapes(b *testing.B) {
	const n = 16 // relations
	for _, shape := range workload.Shapes {
		b.Run(shape.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				sum, cnt := 0.0, 0
				for qi := int64(0); qi < 4; qi++ {
					q, err := workload.Default().GenerateShape(shape, n, rand.New(rand.NewSource(qi+3)))
					if err != nil {
						b.Fatal(err)
					}
					// Best-known = IAI at a huge budget; measured = IAI at 1N².
					big := cost.NewBudget(cost.UnitsFor(40, n-1))
					optB, _ := core.NewOptimizer(q.Clone(), cost.NewMemoryModel(), big, rand.New(rand.NewSource(qi)), core.Options{})
					plB, err := optB.Run(core.IAI)
					if err != nil {
						b.Fatal(err)
					}
					small := cost.NewBudget(cost.UnitsFor(1, n-1))
					optS, _ := core.NewOptimizer(q.Clone(), cost.NewMemoryModel(), small, rand.New(rand.NewSource(qi)), core.Options{})
					plS, err := optS.Run(core.IAI)
					if err != nil {
						b.Fatal(err)
					}
					if plB.TotalCost > 0 {
						sum += plS.TotalCost / plB.TotalCost
						cnt++
					}
				}
				mean = sum / float64(cnt)
			}
			b.ReportMetric(mean, "t1/t40")
		})
	}
}
