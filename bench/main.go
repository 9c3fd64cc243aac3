// Command bench is the ljqd serving benchmark. It starts real ljqd
// daemons on loopback TCP, drives them with seeded traffic from one
// process, checks every response with an oracle, and reads each layer
// from outside the daemons. See README.md for the workloads, the metrics
// and the layer each metric belongs to.
//
// Run it from the repository root through its wrapper, which builds
// ljqd and the benchmark under .bench_build:
//
//	bash bench/run.sh --workload hit-json --seed 1 --seconds 20
//	bash bench/run.sh --trace 1          # per-layer metrics, spans, ladder
//	bash bench/run.sh --repeat 5         # medians and quartiles per metric
//	bash bench/run.sh --smoke            # every phase 1 s
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == "yardstick-serve" {
		if err := serveYardstick(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "yardstick:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run: hit-json, route-cluster, miss-overflow or restart-1e5 (default all four)")
		seed    = flag.Int64("seed", 1, "seed of the request sequence, arrival times and fresh shapes")
		seconds = flag.Float64("seconds", 30, "measured seconds per workload: two thirds fixed-rate open loop, one third closed loop")
		trace   = flag.String("trace", "0", "0: end-to-end metrics; 1 or a file name: also replay in process with spans (written to bench-trace.jsonl or the file), run the layer ladder, and report the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run the whole benchmark this many times, on seeds seed, seed+1, ..., and report each metric's median and quartiles")
		smoke   = flag.Bool("smoke", false, "shorten every phase to 1 s for a quick check")
		ljqd    = flag.String("ljqd", ".bench_build/ljqd", "ljqd binary")
		workdir = flag.String("workdir", ".bench_build/run", "directory for durable caches and other run data")
	)
	flag.Parse()
	// The bench's own collections would stall its workers and read as
	// ljqd latency; collect a quarter as often.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, *seed, *seconds, *trace, *repeat, *smoke, *ljqd, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, seconds float64, trace string, repeat int, smoke bool, ljqd, workdir string) error {
	selected := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []*workload{w}
	}
	if seconds <= 0 || repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	if _, err := os.Stat(ljqd); err != nil {
		return fmt.Errorf("ljqd binary: %w (build it with bench/run.sh)", err)
	}
	abs, err := filepath.Abs(workdir)
	if err != nil {
		return err
	}
	cfg := &config{ljqd: ljqd, workdir: abs, seconds: seconds, smoke: smoke}
	traceFile := ""
	switch trace {
	case "", "0":
	case "1":
		traceFile = "bench-trace.jsonl"
	default:
		traceFile = trace
	}
	metrics := endToEnd
	if traceFile != "" {
		metrics = perLayer
	}

	var runs []*runResult
	var spans *spanWriter
	if traceFile != "" {
		if spans, err = createSpanWriter(traceFile); err != nil {
			return err
		}
	}
	for i := 0; i < repeat; i++ {
		for _, w := range selected {
			r, err := runOne(ctx, cfg, w, seed+int64(i), spans)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printRun(r, metrics)
			runs = append(runs, r)
		}
	}
	if spans != nil {
		if err := spans.close(); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", traceFile)
	}
	if repeat > 1 {
		printRepeat(runs, selected, metrics)
	}
	return printResult(runs, selected, metrics)
}

// runOne runs one workload end to end and, when tracing, the in-process
// replay and the layer ladder.
func runOne(ctx context.Context, cfg *config, w *workload, seed int64, spans *spanWriter) (*runResult, error) {
	r, p, err := runE2E(ctx, cfg, w, seed)
	if err != nil {
		return nil, err
	}
	if spans == nil {
		return r, nil
	}
	if err := replay(ctx, cfg, w, seed, p, r, spans); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := runLadder(ctx, cfg, r); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	return r, nil
}

func printRun(r *runResult, metrics []metric) {
	fmt.Printf("== %s seed %d: correct=%v attempted=%d failed=%d\n", r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Println("  " + n)
	}
	for _, m := range metrics {
		fmt.Printf("  %-38s %16.6g %s\n", m.Name, r.Metrics[m.Name], m.Unit)
	}
}

// values returns one metric of one workload over the runs.
func values(runs []*runResult, w *workload, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if r.Workload == w.Name {
			vs = append(vs, r.Metrics[name])
		}
	}
	return vs
}

// printRepeat prints, per workload and metric, the median and quartiles
// over the runs and flags a spread wider than the metric's bound. The
// set-up time's spread is not held to its bound: only its median is.
func printRepeat(runs []*runResult, selected []*workload, metrics []metric) {
	for _, w := range selected {
		fmt.Printf("== %s over %d runs: median [q1, q3] spread\n", w.Name, len(runs)/len(selected))
		for _, m := range metrics {
			q1, med, q3 := quartiles(values(runs, w, m.Name))
			spread := ratio(q3-q1, math.Abs(med))
			flagged := ""
			if m.Bound > 0 && spread > m.Bound && m.Name != "setup_s" {
				flagged = fmt.Sprintf("  SPREAD > bound %g", m.Bound)
			}
			fmt.Printf("  %-38s %14.6g [%.6g, %.6g] %6.2f%%%s\n", m.Name, med, q1, q3, 100*spread, flagged)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult prints the last line: for one workload and one run, its
// metrics; otherwise each metric's median over runs, keyed
// "<workload>/<metric>" when there are several workloads.
func printResult(runs []*runResult, selected []*workload, metrics []metric) error {
	out := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	for _, w := range selected {
		for _, m := range metrics {
			key := m.Name
			if len(selected) > 1 {
				key = w.Name + "/" + m.Name
			}
			out.Metrics[key] = metricValue{medianOf(values(runs, w, m.Name)), m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
