// Command ljqopt optimizes one large-join query read from JSON (see
// cmd/ljqgen and internal/qfile for the format) and prints the chosen
// plan.
//
// Usage:
//
//	ljqgen -n 40 | ljqopt                         # IAI, memory model, t=9
//	ljqopt -query q.json -method AGI -t 1.5
//	ljqopt -query q.json -cost disk -seed 3 -all  # compare all methods
//	ljqopt -query q.json -fingerprint             # print the ljqd cache key
//	ljqopt -query q.json -trace                   # dump the search trace to stderr
//
// The -trace dump is stamped with budget work units, not wall-clock
// time, so two runs with the same query, seed and budget produce
// byte-identical traces — diff them to localize a nondeterminism bug.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/client"
	"joinopt/internal/core"
	"joinopt/internal/cost"
	"joinopt/internal/engine"
	"joinopt/internal/estimate"
	"joinopt/internal/fingerprint"
	"joinopt/internal/joingraph"
	"joinopt/internal/plan"
	"joinopt/internal/qdsl"
	"joinopt/internal/qfile"
	"joinopt/internal/telemetry"
)

func main() {
	var (
		queryPath = flag.String("query", "-", "query file (- = stdin); JSON by default")
		dsl       = flag.Bool("dsl", false, "parse the query as the textual DSL instead of JSON (see internal/qdsl)")
		method    = flag.String("method", "IAI", "strategy: II, SA, SAA, SAK, IAI, IKI, IAL, AGI, KBI, AUG, KBZ")
		costName  = flag.String("cost", "memory", "cost model: memory, disk, or auto (per-join method choice)")
		tcoeff    = flag.Float64("t", 9, "optimization budget coefficient (time limit t·N²)")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit per optimization (0 = none); on expiry the incumbent plan is returned, flagged degraded")
		seed      = flag.Int64("seed", 1, "random seed")
		all       = flag.Bool("all", false, "run every strategy and print a comparison")
		detailed  = flag.Bool("detailed", false, "print per-join sizes, costs and chosen methods")
		jsonOut   = flag.Bool("json", false, "emit the plan as JSON (order, per-join steps, costs)")
		calibrate = flag.Bool("calibrate", false, "measure real joins on this machine and print a fitted memory cost model, then exit")
		fpOnly    = flag.Bool("fingerprint", false, "print the query's canonical fingerprint (the ljqd plan-cache key) and exit")
		trace     = flag.Bool("trace", false, "dump a budget-stamped search trace to stderr after the run (deterministic per seed)")
		traceCap  = flag.Int("trace-cap", telemetry.DefaultTraceCapacity, "trace ring capacity: how many most-recent events are retained")
		server    = flag.String("server", "", "optimize via a running ljqd daemon at this base URL (e.g. http://127.0.0.1:8080) instead of in-process")
		useWire   = flag.Bool("wire", false, "with -server: use the binary wire protocol instead of JSON")
	)
	flag.Parse()

	if *calibrate {
		runCalibrate(*seed)
		return
	}

	var q *catalog.Query
	var err error
	if *dsl {
		q, err = readDSL(*queryPath)
	} else {
		q, err = qfile.ReadFile(*queryPath)
	}
	if err != nil {
		fail(err)
	}
	if *fpOnly {
		fmt.Println(fingerprint.Of(q))
		return
	}
	if *server != "" {
		runRemote(*server, *useWire, *timeout, q)
		return
	}
	if *useWire {
		fail(fmt.Errorf("-wire requires -server"))
	}
	var model cost.Model
	switch *costName {
	case "memory":
		model = cost.NewMemoryModel()
	case "disk":
		model = cost.NewDiskModel()
	case "auto":
		model = cost.NewChooser()
	default:
		fail(fmt.Errorf("unknown cost model %q", *costName))
	}
	n := q.NumRelations() - 1
	if n < 1 {
		n = 1
	}

	var tr *telemetry.Tracer
	if *trace {
		tr = telemetry.NewTracer(*traceCap)
	}

	if *all {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "method\tcost\tunits used")
		for _, m := range core.Methods {
			tr.Reset() // one trace window per method (nil-safe)
			pl, used, err := run(q, m, model, *tcoeff, *timeout, *seed, n, tr)
			if err != nil {
				fail(err)
			}
			note := ""
			if pl.Degraded {
				note = "  (degraded: " + pl.DegradeReason + ")"
			}
			fmt.Fprintf(w, "%s\t%.6g\t%d%s\n", m, pl.TotalCost, used, note)
			dumpTrace(tr, m.String())
		}
		w.Flush()
		return
	}

	m, err := core.ParseMethod(*method)
	if err != nil {
		fail(err)
	}
	pl, used, err := run(q, m, model, *tcoeff, *timeout, *seed, n, tr)
	if err != nil {
		fail(err)
	}
	dumpTrace(tr, m.String())
	switch {
	case *jsonOut:
		eval := plan.NewEvaluator(planStats(q, model), model, cost.Unlimited())
		if err := qfile.WritePlan(os.Stdout, q, pl, eval); err != nil {
			fail(err)
		}
		return
	case *detailed:
		eval := plan.NewEvaluator(planStats(q, model), model, cost.Unlimited())
		fmt.Print(pl.ExplainDetailed(eval, q))
	default:
		fmt.Print(pl.Explain(q))
	}
	fmt.Printf("method: %s, cost model: %s, budget: %d units (t=%g), used: %d\n",
		m, model.Name(), cost.UnitsFor(*tcoeff, n), *tcoeff, used)
}

// runRemote sends the query to a running ljqd daemon through the
// hardened client (retries, backoff, breaker) and prints the daemon's
// plan rendering. -wire selects the binary protocol; without it the
// request goes as JSON, the public edge codec (every ljqd speaks both,
// and the cluster router always speaks wire between peers).
func runRemote(baseURL string, useWire bool, timeout time.Duration, q *catalog.Query) {
	c, err := client.New(client.Config{BaseURL: baseURL, Wire: useWire})
	if err != nil {
		fail(err)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	resp, err := c.Optimize(ctx, q)
	if err != nil {
		fail(err)
	}
	fmt.Print(resp.Explain)
	fmt.Printf("fingerprint: %s, cost: %.6g, cacheHit: %v, budget used: %d\n",
		resp.Fingerprint, resp.TotalCost, resp.CacheHit, resp.BudgetUsed)
	if resp.Degraded {
		fmt.Printf("degraded: %s\n", resp.DegradeReason)
	}
}

// planStats rebuilds the statistics used by ExplainDetailed.
func planStats(q *catalog.Query, model cost.Model) *estimate.Stats {
	qc := q.Clone()
	qc.Normalize()
	g := joingraph.New(qc)
	return estimate.NewStats(qc, g)
}

// dumpTrace writes the collected search trace to stderr. No-op with a
// nil tracer (-trace not given).
func dumpTrace(tr *telemetry.Tracer, method string) {
	if tr == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "--- search trace (%s) ---\n", method)
	if err := tr.WriteText(os.Stderr); err != nil {
		fail(err)
	}
}

func run(q *catalog.Query, m core.Method, model cost.Model, tcoeff float64, timeout time.Duration, seed int64, n int, tr *telemetry.Tracer) (*plan.Plan, int64, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	budget := cost.NewBudget(cost.UnitsFor(tcoeff, n))
	opt, err := core.NewOptimizer(q.Clone(), model, budget, rand.New(rand.NewSource(seed)), core.Options{Trace: tr})
	if err != nil {
		return nil, 0, err
	}
	pl, err := opt.RunContext(ctx, m)
	if pl == nil && err != nil {
		return nil, 0, err
	}
	if err != nil {
		// Anytime contract: a recovered strategy panic still yields a
		// (degraded) plan; report the crash but keep going.
		fmt.Fprintf(os.Stderr, "ljqopt: warning: %v (returning fallback plan)\n", err)
	}
	return pl, budget.Used(), nil
}

// runCalibrate measures real hash joins and prints a fitted model.
func runCalibrate(seed int64) {
	fmt.Fprintln(os.Stderr, "measuring joins (a few seconds)...")
	samples, err := engine.CalibrationSamples(rand.New(rand.NewSource(seed)), 3)
	if err != nil {
		fail(err)
	}
	m, err := cost.Calibrate(samples)
	if err != nil {
		fail(err)
	}
	fmt.Printf("calibrated memory model (probe ≡ 1): build=%.3f probe=%.3f result=%.3f  R²=%.3f  (%d samples)\n",
		m.Build, m.Probe, m.Result, cost.FitQuality(m, samples), len(samples))
}

// readDSL reads a query in the textual description language.
func readDSL(path string) (*catalog.Query, error) {
	if path == "-" {
		return qdsl.Parse(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return qdsl.Parse(f)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ljqopt: %v\n", err)
	os.Exit(1)
}
