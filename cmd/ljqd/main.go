// Command ljqd is the join-order optimizer daemon: it serves
// optimization over HTTP, amortizing the paper's N²-budget search
// across repeated query shapes through a canonical-fingerprint plan
// cache with request coalescing — and, with -cache-dir, across
// process restarts through a crash-safe journal + snapshot store.
//
// Usage:
//
//	ljqd -addr :8080 -method IAI -cost memory -t 9
//
//	# durable plan cache: recover on start, journal admissions,
//	# snapshot periodically and on SIGTERM drain
//	ljqd -cache-dir /var/lib/ljqd
//
//	# optimize a JSON query (the cmd/ljqgen / internal/qfile format)
//	ljqgen -n 20 | curl -s --data-binary @- localhost:8080/optimize
//
//	# optimize a DSL query (see internal/qdsl)
//	curl -s --data-binary @q.dsl 'localhost:8080/optimize?format=dsl'
//
//	# binary wire protocol (internal/wire): Content-Type
//	# application/x-ljq-wire selects the binary request codec, Accept
//	# the binary response codec; either mixes freely with JSON. ljqopt
//	# speaks it natively:
//	ljqopt -query q.json -server http://localhost:8080 -wire
//
//	# operational status: cache + durability counters, in-flight work
//	curl -s localhost:8080/statusz
//
//	# liveness vs readiness: the listener opens only after recovery
//	# and warm start, so until then every probe is refused. From then
//	# on /healthz (and /livez) answer 200 while the process is up;
//	# /readyz answers 503 while the limiter is shedding and once a
//	# drain has begun, so load balancers stop routing to an
//	# overloaded or stopping daemon
//	curl -s localhost:8080/readyz
//
//	# Prometheus metrics (on by default; -metrics=false disables)
//	curl -s localhost:8080/metrics
//
//	# tiered planning (on by default): a cold miss is answered from the
//	# greedy fast path (X-Plan-Tier: 1) while the full search upgrades
//	# the cached entry in the background under the same -t budget; a
//	# greedy plan estimated at 1e18 or more, or at a non-finite cost,
//	# escalates the miss to the synchronous full search instead
//	ljqd -tiered=false   # classic synchronous full search on every miss
//
//	# cluster mode: each peer lists the full ring membership and its
//	# own advertised URL; on start it warm-starts its plan cache from
//	# the other peers' GET /snapshot before accepting traffic
//	ljqd -addr :8081 -advertise http://host1:8081 \
//	     -peers http://host1:8081,http://host2:8081,http://host3:8081
//
//	# dynamic membership: the ring comes from a roster file ("URL
//	# [weight]" lines, # comments) polled every -membership-poll; each
//	# semantic change mints a new epoch, and the daemon pushes the
//	# arcs it no longer owns to their new owners (POST /snapshot/arc)
//	# before evicting them. -membership-file takes precedence over
//	# -peers (which pins a never-changing epoch 0).
//	ljqd -addr :8081 -advertise http://host1:8081 \
//	     -membership-file /etc/ljqd/members.conf -membership-poll 2s
//
//	# CPU/heap profiling (opt-in; serves net/http/pprof under /debug/pprof/)
//	ljqd -pprof
//
// The daemon sheds load with 503 + Retry-After when the in-flight
// limiter's queue deadline passes, answers oversized bodies with 413,
// and on SIGINT/SIGTERM drains in this order: stop accepting →
// in-flight optimizations finish (the anytime optimizer returns
// incumbent plans to cancelled requests, flagged degraded) → plan
// cache snapshot flushed → exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/cost"
	"joinopt/internal/persist"
	"joinopt/internal/plancache"
	"joinopt/internal/serve"
	"joinopt/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		method       = flag.String("method", "IAI", "strategy: II, SA, SAA, SAK, IAI, IKI, IAL, AGI, KBI, ...")
		costName     = flag.String("cost", "memory", "cost model: memory, disk, or auto")
		tcoeff       = flag.Float64("t", 9, "optimization budget coefficient (t·N² work units per miss)")
		seed         = flag.Int64("seed", 1, "optimizer seed (served plans are deterministic per fingerprint)")
		maxBody      = flag.Int64("max-body", 1<<20, "maximum request body bytes (oversized bodies get 413)")
		maxInflight  = flag.Int64("max-inflight", 256, "in-flight optimization capacity in join units")
		queueTimeout = flag.Duration("queue-timeout", time.Second, "how long a request may wait for capacity before 503")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request optimization deadline")
		cacheSize    = flag.Int("cache-size", 4096, "plan cache capacity (entries)")
		cacheShards  = flag.Int("cache-shards", 16, "plan cache shard count (rounded up to a power of two)")
		costAware    = flag.Bool("cache-cost-aware", true, "cost-aware admission: don't evict expensive plans for cheap ones, and let a greedy plan into a full cache shard only on its shape's second miss")
		cacheDir     = flag.String("cache-dir", "", "directory for the durable plan cache (empty = in-memory only)")
		compactEvery = flag.Int("cache-compact-every", 256, "journal appends between compacting snapshots")
		grace        = flag.Duration("grace", 15*time.Second, "shutdown drain deadline")
		metricsOn    = flag.Bool("metrics", true, "serve Prometheus metrics at GET /metrics")
		pprofOn      = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (opt-in: exposes internals)")
		peersFlag    = flag.String("peers", "", "comma-separated base URLs of every ring member, this one included (static cluster mode: a never-changing epoch 0)")
		advertise    = flag.String("advertise", "", "this peer's own base URL as it appears in the ring membership")
		warmTimeout  = flag.Duration("warm-timeout", 30*time.Second, "per-donor deadline for the startup snapshot fetch")
		memberFile   = flag.String("membership-file", "", "ring roster file (\"URL [weight]\" per line); polled for epoch changes, takes precedence over -peers")
		memberPoll   = flag.Duration("membership-poll", 2*time.Second, "how often to poll -membership-file for changes")

		tiered = flag.Bool("tiered", true, "serve cache misses from the greedy fast path and upgrade in the background")
	)
	flag.Parse()

	m, err := core.ParseMethod(*method)
	if err != nil {
		fail(err)
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

	var reg *telemetry.Registry
	if *metricsOn {
		reg = telemetry.NewRegistry()
	}

	cache := plancache.New(plancache.Config{
		Capacity:  *cacheSize,
		Shards:    *cacheShards,
		CostAware: *costAware,
	})

	// Durable cache: recover before serving, then journal admissions.
	var mgr *persist.Manager
	if *cacheDir != "" {
		store, entries, rstats, err := persist.Open(persist.Options{Dir: *cacheDir})
		if err != nil {
			// A schema mismatch or unreadable directory is a loud
			// failure by design: silently serving a cold cache would
			// hide a deployment mistake.
			fail(fmt.Errorf("open plan-cache dir %s: %w", *cacheDir, err))
		}
		mgr = persist.NewManager(store, cache, *compactEvery)
		warmed := mgr.Recover(entries, rstats)
		mgr.Bind()
		fmt.Fprintf(os.Stderr,
			"ljqd: recovered %d plans from %s (snapshot %d + journal %d records, %d discarded, %d torn bytes)\n",
			warmed, *cacheDir, rstats.SnapshotRecords, rstats.JournalRecords, rstats.Discarded, rstats.TornBytes)
	}

	srv := serve.New(serve.Config{
		Method:           m,
		Model:            model,
		TCoeff:           *tcoeff,
		Seed:             *seed,
		MaxBodyBytes:     *maxBody,
		MaxInFlightJoins: *maxInflight,
		QueueTimeout:     *queueTimeout,
		RequestTimeout:   *reqTimeout,
		CacheHandle:      cache,
		Metrics:          reg,
		Persist:          mgr,
		Tiered:           *tiered,
	})

	handler := srv.Handler()
	if *pprofOn {
		// Opt-in profiling: mount the pprof handlers explicitly on our
		// own mux (importing net/http/pprof for its DefaultServeMux side
		// effect would expose the endpoints even with -pprof=false).
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Cluster mode: before the listener opens (and therefore before
	// /readyz ever answers 200), warm-start the plan cache from the
	// other ring members' snapshots. Donor order is the epoch-0 member
	// order (sorted by URL) with this peer removed, so a rolling restart
	// ships plans from a deterministic neighbor first. Warm-start
	// failure is non-fatal: a peer with no reachable donor joins cold,
	// it does not crash.
	//
	// The epoch-0 roster comes from one of two places, in precedence
	// order: -membership-file (dynamic: polled, each semantic change
	// mints an epoch that the rebalancer applies — push moved arcs,
	// evict what was acknowledged) or -peers (static: a never-changing
	// epoch 0). Both go through the same -advertise checks.
	var (
		e0  *cluster.Epoch
		src *cluster.FileSource
	)
	switch {
	case *memberFile != "":
		if *peersFlag != "" {
			fmt.Fprintln(os.Stderr, "ljqd: -membership-file takes precedence; ignoring -peers")
		}
		// A missing or defective roster is a loud failure by design: a
		// daemon must not join an empty or half-parsed ring.
		if src, err = cluster.NewFileSource(nil, *memberFile, 0); err != nil {
			fail(err)
		}
		e0 = src.Current()
	case *peersFlag != "":
		if e0, err = cluster.StaticEpoch(splitPeers(*peersFlag), 0); err != nil {
			fail(fmt.Errorf("-peers: %w", err))
		}
	}
	var donors []string
	if e0 != nil {
		if *advertise == "" {
			fail(fmt.Errorf("-peers and -membership-file require -advertise (this peer's own URL in the ring)"))
		}
		self := strings.TrimRight(*advertise, "/")
		if !e0.HasPeer(self) {
			fail(fmt.Errorf("-advertise %q is not a member of %s", self, e0))
		}
		for _, p := range e0.Peers() {
			if p != self {
				donors = append(donors, p)
			}
		}
		if src != nil {
			rb, err := cluster.NewRebalancer(cluster.RebalanceConfig{
				Self:  self,
				Cache: cache,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "ljqd: "+format+"\n", args...)
				},
			})
			if err != nil {
				fail(err)
			}
			if reg != nil {
				rb.RegisterMetrics(reg)
			}
			if _, err := rb.Apply(ctx, e0); err != nil { // bootstrap: adopt epoch 0
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "ljqd: dynamic membership from %s (%s, poll %s)\n", *memberFile, e0, *memberPoll)
			go cluster.WatchMembership(ctx, src, *memberPoll, nil, func(e *cluster.Epoch) {
				res, err := rb.Apply(ctx, e)
				if err != nil {
					fmt.Fprintf(os.Stderr, "ljqd: rebalance to %s failed: %v\n", e, err)
					return
				}
				fmt.Fprintf(os.Stderr, "ljqd: applied %s (pushed=%v failed=%v evicted=%d dropped=%d)\n",
					e, res.Pushed, res.Failed, res.Evicted, res.Dropped)
			}, func(err error) {
				fmt.Fprintf(os.Stderr, "ljqd: membership poll: %v (keeping current epoch)\n", err)
			})
		}
	}
	if len(donors) > 0 {
		res, werr := cluster.WarmStart(ctx, cache, cluster.WarmStartConfig{
			Donors:          donors,
			PerDonorTimeout: *warmTimeout,
		})
		for _, a := range res.Attempts {
			fmt.Fprintf(os.Stderr, "ljqd: warm-start donor %s failed: %v\n", a.Donor, a.Err)
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "ljqd: warm-start found no donor, joining cold: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "ljqd: warm-started %d plans (%d bytes) from %s\n",
				res.Entries, res.Bytes, res.Donor)
		}
	}

	err = serve.RunDaemon(ctx, serve.DaemonConfig{
		Server:  srv,
		Addr:    *addr,
		Handler: handler,
		Grace:   *grace,
		OnListen: func(a net.Addr) {
			fmt.Fprintf(os.Stderr, "ljqd: serving on %s (method=%s cost=%s t=%g cache=%d dir=%q)\n",
				a, m, model.Name(), *tcoeff, *cacheSize, *cacheDir)
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if mgr != nil {
		if cerr := mgr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "ljqd: bye")
}

// splitPeers parses a comma-separated peer list, trimming whitespace
// and trailing slashes and dropping empties.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ljqd: %v\n", err)
	os.Exit(1)
}
