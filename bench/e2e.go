package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"joinopt/internal/client"
	"joinopt/internal/cluster"
	"joinopt/internal/fingerprint"
	"joinopt/internal/serve"
)

// config is what one invocation of the benchmark was asked to do.
type config struct {
	ljqd    string
	workdir string
	seconds float64
	smoke   bool
}

// durations splits the measured seconds 2:1 between the fixed-rate open
// loop and the closed loop; the untimed warm phase adds a sixth, at most
// 5 s.
func (c *config) durations() (warm, fixed, closed time.Duration) {
	if c.smoke {
		return time.Second, time.Second, time.Second
	}
	s := time.Duration(c.seconds * float64(time.Second))
	return min(5*time.Second, s/6), s * 2 / 3, s / 3
}

// topology is the running daemons of one workload and what the load is
// sent through.
type topology struct {
	ds     []*daemon
	opt    optimizer
	router *cluster.Router
	local  *serve.Server // the router's local rung
}

func (t *topology) stop() {
	for _, d := range t.ds {
		d.stop()
	}
	if t.local != nil {
		t.local.StopUpgrades()
	}
}

// start execs the workload's daemons and returns once every one answers
// /readyz, with the time that took. dataDir is the -cache-dir of a
// durable workload.
func start(ctx context.Context, cfg *config, w *workload, dataDir string) (*topology, time.Duration, error) {
	ports, err := freePorts(w.Daemons)
	if err != nil {
		return nil, 0, err
	}
	var urls []string
	for _, p := range ports {
		urls = append(urls, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	t := &topology{}
	begin := time.Now()
	for i, port := range ports {
		var flags []string
		if w.Daemons > 1 {
			flags = append(flags, "-peers", strings.Join(urls, ","), "-advertise", urls[i])
		}
		if w.Durable {
			flags = append(flags, "-cache-dir", dataDir)
		}
		if w.CacheSize > 0 {
			flags = append(flags, "-cache-size", fmt.Sprint(w.CacheSize))
		}
		d, err := startDaemon(cfg.ljqd, port, flags...)
		if err != nil {
			t.stop()
			return nil, 0, err
		}
		t.ds = append(t.ds, d)
	}
	for _, d := range t.ds {
		if err := d.waitReady(ctx, 120*time.Second); err != nil {
			t.stop()
			return nil, 0, err
		}
	}
	setup := time.Since(begin)
	if w.Routed {
		// The router as shipped: zero-value client template (JSON hop),
		// no hedging, an in-process tiered server as the last rung.
		t.local = serve.New(serve.Config{Tiered: true})
		t.router, err = cluster.NewRouter(cluster.RouterConfig{Peers: urls, Local: t.local})
		t.opt = t.router
	} else {
		// One attempt: a failure must surface, not be retried away.
		t.opt, err = client.New(client.Config{BaseURL: urls[0], MaxAttempts: 1, Wire: w.Wire})
	}
	if err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, setup, nil
}

// waitUpgrades blocks until no daemon has a background upgrade pending.
func waitUpgrades(ctx context.Context, ds []*daemon) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		pending := 0
		for _, d := range ds {
			st, err := d.status(ctx)
			if err != nil {
				return err
			}
			pending += st.Tiers.PendingUpgrades
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d upgrades still pending after 120s", pending)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// counters is one reading of every layer counter the bench can see from
// outside.
type counters struct {
	cache      struct{ hits, misses, evictions, rejected float64 }
	tiers      struct{ escalations, completed, dropped float64 }
	shed       float64
	appends    float64
	snapshots  float64
	mallocs    float64
	cpu        time.Duration // all daemons
	yardCPU    time.Duration
	writeBytes float64
	router     cluster.RouterStats
	self       time.Duration // the bench process
	at         time.Time
}

func read(ctx context.Context, t *topology, y *yardstick) (*counters, error) {
	c := &counters{at: time.Now()}
	for _, d := range t.ds {
		st, err := d.status(ctx)
		if err != nil {
			return nil, err
		}
		c.cache.hits += float64(st.Cache.Hits)
		c.cache.misses += float64(st.Cache.Misses)
		c.cache.evictions += float64(st.Cache.Evictions)
		c.cache.rejected += float64(st.Cache.Rejected)
		c.tiers.escalations += float64(st.Tiers.Escalations)
		c.tiers.completed += float64(st.Tiers.UpgradesCompleted)
		c.tiers.dropped += float64(st.Tiers.UpgradesDropped)
		c.shed += float64(st.Shed)
		if st.Persist != nil {
			c.appends += float64(st.Persist.Appends)
			c.snapshots += float64(st.Persist.Snapshots)
		}
		m, err := d.mallocs(ctx)
		if err != nil {
			return nil, err
		}
		c.mallocs += float64(m)
		cpu, err := procRunTime(d.pid())
		if err != nil {
			return nil, err
		}
		c.cpu += cpu
		// /proc/<pid>/io needs ptrace access some sandboxes deny; the
		// write-bytes metric then reads 0 rather than failing the run.
		if wb, err := procField(d.pid(), "io", "write_bytes"); err == nil {
			c.writeBytes += float64(wb)
		}
	}
	var err error
	if c.yardCPU, err = procRunTime(y.pid()); err != nil {
		return nil, err
	}
	if t.router != nil {
		c.router = t.router.Stats()
	}
	if c.self, err = procCPU(os.Getpid()); err != nil {
		return nil, err
	}
	return c, nil
}

// sampleBacklog records the largest upgrade backlog summed over daemons,
// read once a second until ctx ends.
func sampleBacklog(ctx context.Context, ds []*daemon) (wait func() float64) {
	var peak float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			sum := 0.0
			for _, d := range ds {
				if st, err := d.status(ctx); err == nil {
					sum += float64(st.Tiers.PendingUpgrades)
				}
			}
			peak = max(peak, sum)
		}
	}()
	return func() float64 { <-done; return peak }
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Notes     []string // printed above the result line
}

// runE2E runs one workload end to end: set-up, warm, fixed-rate open
// loop, closed loop, then the oracle over every response.
func runE2E(ctx context.Context, cfg *config, w *workload, seed int64) (*runResult, *pool, error) {
	warmD, fixedD, closedD := cfg.durations()
	res := &runResult{Workload: w.Name, Seed: seed, Metrics: map[string]float64{}}
	m := res.Metrics
	note := func(format string, args ...any) { res.Notes = append(res.Notes, fmt.Sprintf(format, args...)) }
	work := filepath.Join(cfg.workdir, w.Name)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	p := newPool(w, seed)
	var expected map[fingerprint.Fingerprint]float64
	dataDir := filepath.Join(work, "data")
	if w.Prebuilt {
		pristine, want, err := prebuilt(w, p, cfg.workdir)
		if err != nil {
			return nil, nil, err
		}
		expected = want
		if err := copyDir(pristine, dataDir); err != nil {
			return nil, nil, err
		}
	}

	// Set-up, several times, each followed by a yardstick start; the last
	// pair serves the run. A durable workload without a pre-built cache
	// starts each set-up on an empty directory; restart-1e5 restarts on
	// the same one.
	var t *topology
	var y *yardstick
	var setups, yardSetups, recovers []float64
	for k := 0; k < w.Setups; k++ {
		if t != nil {
			t.stop()
			y.stop()
		}
		if w.Durable && !w.Prebuilt {
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, nil, err
			}
		}
		var setup, ysetup time.Duration
		var err error
		if t, setup, err = start(ctx, cfg, w, dataDir); err != nil {
			return nil, nil, err
		}
		if y, ysetup, err = startYardstick(ctx); err != nil {
			t.stop()
			return nil, nil, err
		}
		setups = append(setups, setup.Seconds())
		yardSetups = append(yardSetups, ysetup.Seconds())
		recovers = append(recovers, t.ds[0].recoverTime().Seconds())
	}
	defer t.stop()
	defer y.stop()
	m["harness.measured_setup_s"] = medianOf(setups)
	m["harness.yardstick_setup_s"] = medianOf(yardSetups)
	m["setup_s"] = m["harness.measured_setup_s"] * yardRefSetup / m["harness.yardstick_setup_s"]
	recoverS := medianOf(recovers)
	note("setup: median of %d: %.4fs measured, yardstick %.4fs, normalized %.4fs; exec to recovery line %.4fs",
		len(setups), m["harness.measured_setup_s"], m["harness.yardstick_setup_s"], m["setup_s"], recoverS)

	// Warm: pool shapes once each (upgrades awaited), then open-loop
	// traffic at the frozen rate.
	var all []record
	errs := &errorLog{}
	warmShapes := func(n int) error {
		for lo := 0; lo < n; lo += 512 {
			var chunk []int32
			for s := lo; s < min(n, lo+512); s++ {
				chunk = append(chunk, int32(s))
			}
			all = append(all, sendAll(ctx, t.opt, p, chunk, errs)...)
			if err := waitUpgrades(ctx, t.ds); err != nil {
				return err
			}
		}
		return nil
	}
	if w.Prewarm {
		if err := warmShapes(w.Pool); err != nil {
			return nil, nil, err
		}
	}
	if err := warmShapes(w.Prefill); err != nil {
		return nil, nil, err
	}
	warm, _ := openLoop(ctx, t.opt, p, phaseWarm, withYardstick(schedule(w, seed, phaseWarm, warmD, w.Rate), seed, phaseWarm, warmD, w.Rate), errs, y)
	all = append(all, withoutYardstick(warm)...)

	// Fixed-rate open loop, bracketed by counter readings.
	before, err := read(ctx, t, y)
	if err != nil {
		return nil, nil, err
	}
	sctx, stopSampler := context.WithCancel(ctx)
	backlog := sampleBacklog(sctx, t.ds)
	fixedAll, lags := openLoop(ctx, t.opt, p, phaseFixed, withYardstick(schedule(w, seed, phaseFixed, fixedD, w.Rate), seed, phaseFixed, fixedD, w.Rate), errs, y)
	stopSampler()
	after, err := read(ctx, t, y)
	if err != nil {
		return nil, nil, err
	}
	backlogMax := backlog()

	// Closed loop; enough sequence for 50k requests a second.
	closedAll := closedLoop(ctx, t.opt, p, phaseClosed, sequence(w, seed, phaseClosed, int(50000*closedD.Seconds())+1), closedD, errs, y)
	var hwm uint64
	for _, d := range t.ds {
		v, err := procField(d.pid(), "status", "VmHWM")
		if err != nil {
			return nil, nil, err
		}
		hwm += v
	}
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}

	// Oracle over every ljqd response of every phase.
	fixed, closed := withoutYardstick(fixedAll), withoutYardstick(closedAll)
	offFixed := len(all)
	offClosed := offFixed + len(fixed)
	all = append(append(all, fixed...), closed...)
	v := verify(p, all, expected)
	rejected := 0
	for i := range all {
		if v.bad[i] != nil {
			errs.keep(&all[i], v.bad[i])
			rejected++
			all[i].OK = false // a wrong answer is a failed request
		}
	}
	fixed, closed = all[offFixed:offClosed], all[offClosed:]
	res.Attempted = len(fixed) + len(closed)
	for _, r := range all[offFixed:] {
		if !r.OK {
			res.Failed++
		}
	}
	res.Correct = rejected == 0
	m["success_rate"] = 1 - float64(res.Failed)/float64(res.Attempted)
	if errs.n+rejected > 0 {
		note("failures: %d requests failed, %d responses rejected by the oracle; first: %s",
			errs.n, rejected, strings.Join(errs.first, "; "))
	}

	// Latency over the fixed phase: ljqd's service time, send to response,
	// normalized by the yardstick's in the same phase. The time from the
	// due time, which adds the wait for a free worker, is reported too.
	yardService := percentile(serviceTimes(onlyYardstick(fixedAll)), 0.5)
	service, due := serviceTimes(fixed), latencies(fixed)
	m["harness.yardstick_service_ms"] = yardService
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		m["harness.measured_latency_"+q.name+"_ms"] = finite(percentile(service, q.p))
	}
	m["harness.due_latency_p50_ms"] = finite(percentile(due, 0.5))
	m["harness.due_latency_p99_ms"] = finite(percentile(due, 0.99))
	m["latency_p50_ms"] = m["harness.measured_latency_p50_ms"] * yardRefService / yardService
	m["harness.latency_p90_ms"] = m["harness.measured_latency_p90_ms"] * yardRefService / yardService
	m["harness.latency_p99_ms"] = m["harness.measured_latency_p99_ms"] * yardRefService / yardService
	hp := highestSupported(len(service))
	note("fixed: %d requests at %.0f/s over %v, %d more to the yardstick; service p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, p%g %.4f ms; from the due time p50 %.4f ms, p99 %.4f ms; yardstick service p50 %.4f ms",
		len(fixed), w.Rate, fixedD, len(fixedAll)-len(fixed), m["harness.measured_latency_p50_ms"], m["harness.measured_latency_p90_ms"],
		m["harness.measured_latency_p99_ms"], 100*hp, finite(percentile(service, hp)), m["harness.due_latency_p50_ms"], m["harness.due_latency_p99_ms"], yardService)

	// Throughput over the closed loop, normalized by the yardstick's
	// latency there (a closed loop has no wait).
	good := 0
	for _, r := range closed {
		if r.OK && r.Lat <= w.LatencyLimit {
			good++
		}
	}
	yardClosed := percentile(latencies(onlyYardstick(closedAll)), 0.5)
	m["harness.yardstick_closed_ms"] = yardClosed
	m["harness.measured_throughput_rps"] = float64(good) / closedD.Seconds()
	m["throughput_rps"] = m["harness.measured_throughput_rps"] * yardClosed / yardRefClosed
	note("closed: %d requests, %d within %v: %.1f/s measured; yardstick p50 %.4f ms", len(closed), good, w.LatencyLimit, m["harness.measured_throughput_rps"], yardClosed)

	// Plan quality over the fixed phase.
	var logCost, logSkew float64
	var okFixed, tier1 int
	for i, r := range fixed {
		j := offFixed + i
		if !r.OK {
			continue
		}
		okFixed++
		logCost += math.Log(v.recost[j])
		if r.Tier == 1 {
			tier1++
			logSkew += math.Log(r.Cost / v.recost[j])
		}
	}
	m["plan_cost_ratio"] = planCostRatio(w, fixed, v.recost[offFixed:offClosed], v.ref[offFixed:offClosed])

	d := func(f func(c *counters) float64) float64 { return f(after) - f(before) }
	yardCPU := ratio(float64(after.yardCPU-before.yardCPU)/1e6, float64(len(fixedAll)-len(fixed)))
	m["harness.yardstick_cpu_ms"] = yardCPU
	m["harness.measured_cpu_ms_per_req"] = ratio(float64(after.cpu-before.cpu)/1e6, float64(okFixed))
	m["cpu_ms_per_req"] = ratio(m["harness.measured_cpu_ms_per_req"]*yardRefCPU, yardCPU)
	note("cpu: %.4f ms per request measured; yardstick %.4f ms", m["harness.measured_cpu_ms_per_req"], yardCPU)
	m["allocs_per_req"] = ratio(d(func(c *counters) float64 { return c.mallocs }), float64(okFixed))
	m["rss_mb"] = float64(hwm) / 1024

	// Per-layer counters over the fixed phase.
	req := float64(len(fixed))
	misses := d(func(c *counters) float64 { return c.cache.misses })
	hits := d(func(c *counters) float64 { return c.cache.hits })
	m["plancache.hit_ratio"] = ratio(hits, hits+misses)
	m["plancache.evictions_per_req"] = ratio(d(func(c *counters) float64 { return c.cache.evictions }), req)
	m["plancache.rejected_per_req"] = ratio(d(func(c *counters) float64 { return c.cache.rejected }), req)
	m["serve.tier1_served_share"] = ratio(float64(tier1), float64(okFixed))
	m["serve.escalations_per_miss"] = ratio(d(func(c *counters) float64 { return c.tiers.escalations }), misses)
	m["serve.upgrades_completed_per_miss"] = ratio(d(func(c *counters) float64 { return c.tiers.completed }), misses)
	m["serve.upgrades_dropped_per_req"] = ratio(d(func(c *counters) float64 { return c.tiers.dropped }), req)
	m["serve.upgrade_backlog_max"] = backlogMax
	m["serve.shed_per_req"] = ratio(d(func(c *counters) float64 { return c.shed }), req)
	m["persist.appends_per_req"] = ratio(d(func(c *counters) float64 { return c.appends }), req)
	m["persist.snapshots_per_kreq"] = 1000 * ratio(d(func(c *counters) float64 { return c.snapshots }), req)
	m["persist.write_bytes_per_req"] = ratio(d(func(c *counters) float64 { return c.writeBytes }), req)
	m["persist.recover_share"] = ratio(recoverS, m["harness.measured_setup_s"])
	m["cluster.failover_share"], m["cluster.local_fallback_share"] = 0, 0
	m["cluster.read_repair_per_req"], m["cluster.route_skew"] = 0, 0
	if t.router != nil {
		ok := float64(okFixed)
		m["cluster.failover_share"] = ratio(float64(after.router.Failovers-before.router.Failovers), ok)
		m["cluster.local_fallback_share"] = ratio(float64(after.router.LocalFallbacks-before.router.LocalFallbacks), ok)
		m["cluster.read_repair_per_req"] = ratio(float64(after.router.ReadRepairs-before.router.ReadRepairs), ok)
		lo, hi := math.Inf(1), 0.0
		for _, d := range t.ds {
			n := float64(after.router.Routes[d.url] - before.router.Routes[d.url])
			lo, hi = min(lo, n), max(hi, n)
		}
		m["cluster.route_skew"] = ratio(hi, lo)
	}
	m["greedy.reported_cost_skew"] = 0
	if tier1 > 0 {
		m["greedy.reported_cost_skew"] = math.Exp(logSkew / float64(tier1))
	}
	m["plan.cost_gmean"] = math.Exp(logCost / float64(max(okFixed, 1)))

	lagMs := make([]float64, len(lags))
	for i, l := range lags {
		lagMs[i] = float64(l) / 1e6
	}
	sort.Float64s(lagMs)
	m["harness.dispatch_lag_p99_ms"] = percentile(lagMs, 0.99)
	m["harness.cpu_share"] = float64(after.self-before.self) / float64(after.at.Sub(before.at))
	note("harness: dispatch lag p50 %.4f ms, p99 %.4f ms over %d wake-ups; bench CPU %.1f%% of one core",
		percentile(lagMs, 0.5), m["harness.dispatch_lag_p99_ms"], len(lagMs), 100*m["harness.cpu_share"])
	if m["harness.dispatch_lag_p99_ms"] > 1 {
		note("INVALID RUN: dispatch lag p99 %.3f ms exceeds 1 ms; the generator, not ljqd, set the latency", m["harness.dispatch_lag_p99_ms"])
	}
	return res, p, nil
}

// withoutYardstick returns the ljqd requests of recs, in order.
func withoutYardstick(recs []record) []record {
	out := make([]record, 0, len(recs))
	for _, r := range recs {
		if r.Shape != yardShape {
			out = append(out, r)
		}
	}
	return out
}

func onlyYardstick(recs []record) []record {
	var out []record
	for _, r := range recs {
		if r.Shape == yardShape {
			out = append(out, r)
		}
	}
	return out
}

// planCostRatio is the geometric mean, over the shapes served, of each
// shape's served cost over its reference cost, weighting every shape by
// the probability the workload asks for it: its Zipf or uniform share of
// the recurring traffic, or an equal part of the fresh share. Averaging
// over requests instead let the random count of the Zipf head's requests
// move the mean by 4% from seed to seed.
func planCostRatio(w *workload, recs []record, recost, ref []float64) float64 {
	type acc struct {
		logSum float64
		n      int
	}
	by := map[int32]*acc{}
	fresh := 0
	for i, r := range recs {
		if !r.OK {
			continue
		}
		a := by[r.Shape]
		if a == nil {
			a = &acc{}
			by[r.Shape] = a
			if r.Shape < 0 {
				fresh++
			}
		}
		a.logSum += math.Log(recost[i] / ref[i])
		a.n++
	}
	zipfNorm := 0.0
	for k := 0; w.Zipf > 0 && k < w.Pool; k++ {
		zipfNorm += math.Pow(float64(k+1), -w.Zipf)
	}
	var num, den float64
	for shape, a := range by {
		var weight float64
		switch {
		case shape < 0:
			weight = w.Fresh / float64(fresh)
		case w.Zipf > 0:
			weight = (1 - w.Fresh) * math.Pow(float64(shape+1), -w.Zipf) / zipfNorm
		default:
			weight = (1 - w.Fresh) / float64(w.Pool)
		}
		num += weight * a.logSum / float64(a.n)
		den += weight
	}
	if den == 0 {
		return 0 // nothing was served
	}
	return math.Exp(num / den)
}
