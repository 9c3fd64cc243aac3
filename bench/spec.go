package main

import "time"

// metric is one reported number: its name, unit, which direction is
// better and, for end-to-end metrics, the share of the parent's median by
// which it may worsen before a change counts as a regression.
// BENCHMARK.json carries the same list; TestBenchmarkJSONMatchesSpec keeps
// the two equal.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a caller of ljqd sees, reported by every
// workload with tracing off.
var endToEnd = []metric{
	// The median of several set-ups a run. Its bound is the largest any
	// metric may have, as set-up time is where moved work would hide.
	{"setup_s", "s", "lower", 0.25},
	// Median service time (send to response) in the fixed-rate phase,
	// which repeated within 1-7% on ten seeds. The p90 and p99 are
	// reported but not gated: on miss-overflow the p90 spread up to 20%
	// and its median moved 16% between two sets of ten.
	{"latency_p50_ms", "ms", "lower", 0.25},
	// Repeated within 2-7% on ten seeds.
	{"throughput_rps", "req/s", "higher", 0.25},
	// 1 - failed/attempted: error_rate itself reads 0 on a healthy run, and
	// a gated metric must never read 0. A bound of 0.001 is +0.001 absolute
	// on the error rate.
	{"success_rate", "share", "higher", 0.001},
	{"plan_cost_ratio", "ratio", "lower", 0.15},
	{"cpu_ms_per_req", "ms", "lower", 0.20},
	{"allocs_per_req", "allocs", "lower", 0.10},
	{"rss_mb", "MB", "lower", 0.20},
}

// Spans recorded by the traced replay, in pipeline order.
var spanNames = []string{
	"client.encode", "qfile.decode", "wire.decode", "fingerprint.canonical",
	"cluster.ring", "plancache.get_or_compute", "fingerprint.relabel",
	"greedy.plan", "core.search", "serve.translate", "serve.encode",
	"client.decode", "cluster.read_repair", "persist.append",
	"persist.snapshot", "persist.open", "plancache.warm",
}

// timedSpans run on every workload's replay, so their self time is never
// a structural zero; the self time of the others is printed in the span
// table, and the result line carries their calls per request.
var timedSpans = []string{
	"client.encode", "fingerprint.canonical", "plancache.get_or_compute",
	"serve.translate", "serve.encode", "client.decode",
}

// perLayer are the metrics reported with tracing on. Each is listed with
// the end-to-end metric it should move in README.md.
var perLayer = func() []metric {
	var m []metric
	for _, s := range timedSpans {
		m = append(m, metric{s + ".self_us", "us", "lower", 0})
	}
	for _, s := range spanNames {
		m = append(m, metric{s + ".calls_per_req", "calls", "lower", 0})
	}
	return append(m,
		metric{"plancache.hit_ratio", "share", "higher", 0},
		metric{"plancache.evictions_per_req", "count", "lower", 0},
		metric{"plancache.rejected_per_req", "count", "lower", 0},
		metric{"serve.tier1_served_share", "share", "lower", 0},
		metric{"serve.escalations_per_miss", "count", "lower", 0},
		metric{"serve.upgrades_completed_per_miss", "count", "higher", 0},
		metric{"serve.upgrades_dropped_per_req", "count", "lower", 0},
		metric{"serve.upgrade_backlog_max", "count", "lower", 0},
		metric{"serve.shed_per_req", "count", "lower", 0},
		metric{"persist.appends_per_req", "count", "lower", 0},
		metric{"persist.snapshots_per_kreq", "count", "lower", 0},
		metric{"persist.write_bytes_per_req", "bytes", "lower", 0},
		metric{"persist.recover_share", "share", "lower", 0},
		metric{"cluster.failover_share", "share", "lower", 0},
		metric{"cluster.local_fallback_share", "share", "lower", 0},
		metric{"cluster.read_repair_per_req", "count", "lower", 0},
		metric{"cluster.route_skew", "ratio", "lower", 0},
		metric{"greedy.reported_cost_skew", "ratio", "lower", 0},
		metric{"plan.cost_gmean", "cost", "lower", 0},
		metric{"harness.dispatch_lag_p99_ms", "ms", "lower", 0},
		metric{"harness.cpu_share", "share", "lower", 0},
		metric{"harness.measured_setup_s", "s", "lower", 0},
		metric{"harness.latency_p90_ms", "ms", "lower", 0},
		metric{"harness.latency_p99_ms", "ms", "lower", 0},
		metric{"harness.measured_latency_p50_ms", "ms", "lower", 0},
		metric{"harness.measured_latency_p90_ms", "ms", "lower", 0},
		metric{"harness.measured_latency_p99_ms", "ms", "lower", 0},
		metric{"harness.due_latency_p50_ms", "ms", "lower", 0},
		metric{"harness.due_latency_p99_ms", "ms", "lower", 0},
		metric{"harness.measured_throughput_rps", "req/s", "higher", 0},
		metric{"harness.measured_cpu_ms_per_req", "ms", "lower", 0},
		metric{"harness.yardstick_setup_s", "s", "lower", 0},
		metric{"harness.yardstick_service_ms", "ms", "lower", 0},
		metric{"harness.yardstick_closed_ms", "ms", "lower", 0},
		metric{"harness.yardstick_cpu_ms", "ms", "lower", 0},
		metric{"trace.model_gap", "share", "lower", 0},
		metric{"trace.overhead_share", "share", "lower", 0},
		metric{"ladder.plancache_get_ns", "ns", "lower", 0},
		metric{"ladder.plancache_get_allocs", "allocs", "lower", 0},
		metric{"ladder.fingerprint_us", "us", "lower", 0},
		metric{"ladder.fingerprint_allocs", "allocs", "lower", 0},
		metric{"ladder.optimize_query_us", "us", "lower", 0},
		metric{"ladder.optimize_query_allocs", "allocs", "lower", 0},
		metric{"ladder.handler_wire_us", "us", "lower", 0},
		metric{"ladder.handler_wire_allocs", "allocs", "lower", 0},
		metric{"ladder.handler_json_us", "us", "lower", 0},
		metric{"ladder.handler_json_allocs", "allocs", "lower", 0},
		metric{"ladder.tcp_wire_us", "us", "lower", 0},
		metric{"ladder.tcp_wire_allocs", "allocs", "lower", 0},
		metric{"ladder.tcp_json_us", "us", "lower", 0},
		metric{"ladder.tcp_json_allocs", "allocs", "lower", 0},
		metric{"ladder.routed_json_us", "us", "lower", 0},
		metric{"ladder.routed_json_allocs", "allocs", "lower", 0},
		metric{"ladder.routed_wire_us", "us", "lower", 0},
		metric{"ladder.routed_wire_allocs", "allocs", "lower", 0},
		metric{"ladder.peer_hop_x", "ratio", "lower", 0},
	)
}()

// poolSeed fixes every recurring query pool. The run seed draws the
// request sequence, the arrival times and the fresh shapes, never the
// pool: with a Zipf head, which shapes sit at the top would otherwise
// swing plan cost by a factor of several from seed to seed.
const poolSeed = 1

// workload is one traffic mix against one topology. The rates are frozen:
// each is 35-45% of the closed-loop capacity measured on a 2-vCPU box at
// the commit that introduced the benchmark, and is never calibrated at
// run time.
type workload struct {
	Name string
	Why  string

	Daemons   int  // ljqd processes
	Routed    bool // requests go through a cluster.Router in the bench
	Wire      bool // binary wire codec on the edge (JSON otherwise)
	Durable   bool // -cache-dir
	CacheSize int  // -cache-size; 0 keeps the daemon default

	PoolKind   uint64  // which fixed pool; workloads sharing it share shapes
	Pool       int     // recurring shapes
	NMin, NMax int     // joins per query
	Zipf       float64 // Zipf exponent over the pool; 0 = uniform
	Fresh      float64 // share of requests for never-repeated shapes

	Rate         float64       // fixed-phase arrivals per second
	LatencyLimit time.Duration // closed-loop responses slower than this do not count
	Setups       int           // set-ups per run; setup_s is their median

	Prewarm  bool // send every pool shape once and wait for its upgrade
	Prefill  int  // send the most popular shapes once, in chunks, before the warm phase
	Prebuilt bool // restart on a durable dir holding a greedy entry per pool shape
}

var workloads = []*workload{
	{
		Name:    "hit-json",
		Why:     "cache hits over JSON: 512 Zipf shapes, N 8-30, pre-warmed to tier 2, 1 ljqd, 1800/s; only decode, fingerprint, cache, translate and encode run",
		Daemons: 1, PoolKind: 1, Pool: 512, NMin: 8, NMax: 30, Zipf: 1.1,
		Rate: 1800, LatencyLimit: 10 * time.Millisecond, Setups: 15, Prewarm: true,
	},
	{
		Name:    "route-cluster",
		Why:     "hit-json's pool and sequence through cluster.Router to 3 ljqd over the JSON hop, 1600/s; the gap to hit-json is the router plus the peer hop",
		Daemons: 3, Routed: true, PoolKind: 1, Pool: 512, NMin: 8, NMax: 30, Zipf: 1.1,
		Rate: 1600, LatencyLimit: 10 * time.Millisecond, Setups: 15, Prewarm: true,
	},
	{
		Name:    "miss-overflow",
		Why:     "40% fresh shapes plus Zipf over 32768 (8x the cache), N 8-40, wire, -cache-dir, 1000/s; greedy misses, background upgrades, evictions and journal fsyncs",
		Daemons: 1, Wire: true, Durable: true, PoolKind: 2, Pool: 32768, NMin: 8, NMax: 40, Zipf: 1.1, Fresh: 0.4,
		Rate: 1000, LatencyLimit: 25 * time.Millisecond, Setups: 15, Prefill: 4096,
	},
	{
		Name:    "restart-1e5",
		Why:     "restart on a durable dir of 1e5 greedy entries, -cache-size 131072, uniform hits over wire, 4000/s; setup_s is bound by recovery",
		Daemons: 1, Wire: true, Durable: true, CacheSize: 131072, PoolKind: 3, Pool: 100000, NMin: 8, NMax: 30,
		Rate: 4000, LatencyLimit: 10 * time.Millisecond, Setups: 3, Prebuilt: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
