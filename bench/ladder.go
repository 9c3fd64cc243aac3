package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/client"
	"joinopt/internal/cluster"
	"joinopt/internal/fingerprint"
	"joinopt/internal/plancache"
	"joinopt/internal/qfile"
	"joinopt/internal/serve"
	"joinopt/internal/wire"
	joinworkload "joinopt/internal/workload"
)

// ladderBatches × per-rung iterations are timed; a rung reports the
// median batch's mean time per call.
const ladderBatches = 5

// ladderQuery is the repository's 20-join smoke query.
func ladderQuery() *catalog.Query {
	return joinworkload.Default().Generate(20, rand.New(rand.NewSource(42)))
}

// timeRung returns the median over ladderBatches of the mean time of
// iters calls of f, in nanoseconds.
func timeRung(iters int, f func()) float64 {
	var means []float64
	for b := 0; b < ladderBatches; b++ {
		begin := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		means = append(means, float64(time.Since(begin))/float64(iters))
	}
	return medianOf(means)
}

// runLadder measures the same query at every layer, from a plan-cache
// lookup to a routed TCP hit, so the layers' costs can be compared and
// summed. In-process rungs report allocations per call; TCP rungs report
// the daemons' allocations per request.
func runLadder(ctx context.Context, cfg *config, r *runResult) error {
	q := ladderQuery()
	fp, _ := fingerprint.Canonical(q)
	m := r.Metrics
	us := func(ns float64) float64 { return ns / 1e3 }

	// In process.
	srv := serve.New(serve.Config{Tiered: true})
	defer srv.StopUpgrades()
	if _, err := srv.OptimizeQuery(ctx, q); err != nil {
		return err
	}
	srv.WaitUpgrades()
	entry, ok := srv.Cache().Peek(fp)
	if !ok {
		return fmt.Errorf("ladder query not cached after warm-up")
	}
	cache := plancache.New(plancache.Config{})
	cache.Put(entry)
	get := func() { cache.Get(fp) }
	m["ladder.plancache_get_ns"] = timeRung(200000, get)
	m["ladder.plancache_get_allocs"] = testing.AllocsPerRun(1000, get)
	canon := func() { fingerprint.Canonical(q) }
	m["ladder.fingerprint_us"] = us(timeRung(2000, canon))
	m["ladder.fingerprint_allocs"] = testing.AllocsPerRun(200, canon)
	opt := func() {
		if _, err := srv.OptimizeQuery(ctx, q); err != nil {
			panic(err) // a cache hit cannot fail
		}
	}
	m["ladder.optimize_query_us"] = us(timeRung(2000, opt))
	m["ladder.optimize_query_allocs"] = testing.AllocsPerRun(200, opt)
	var jsonBody bytes.Buffer
	if err := qfile.Write(&jsonBody, q); err != nil {
		return err
	}
	for _, c := range []struct {
		name        string
		body        []byte
		contentType string
	}{
		{"wire", wire.EncodeQuery(q), wire.ContentType},
		{"json", jsonBody.Bytes(), ""},
	} {
		h := srv.Handler()
		const iters = 2000
		// One request per timed call, plus testing.AllocsPerRun's warm-up
		// call and its 200 runs.
		reqs := make([]*http.Request, 0, ladderBatches*iters+201)
		for i := 0; i < cap(reqs); i++ {
			req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(c.body))
			if c.contentType != "" {
				req.Header.Set("Content-Type", c.contentType)
				req.Header.Set("Accept", c.contentType)
			}
			reqs = append(reqs, req)
		}
		next := 0
		serveOne := func() {
			h.ServeHTTP(httptest.NewRecorder(), reqs[next])
			next++
		}
		m["ladder.handler_"+c.name+"_us"] = us(timeRung(iters, serveOne))
		m["ladder.handler_"+c.name+"_allocs"] = testing.AllocsPerRun(200, serveOne)
	}

	// Over loopback TCP: three ljqd peers; the direct rungs ask the
	// query's primary, which the routed warm-up filled.
	t, _, err := start(ctx, cfg, &workload{Name: "ladder", Daemons: 3, Routed: true}, "")
	if err != nil {
		return err
	}
	defer t.stop()
	if _, err := t.router.Optimize(ctx, q); err != nil {
		return err
	}
	if err := waitUpgrades(ctx, t.ds); err != nil {
		return err
	}
	var primary *daemon
	for _, d := range t.ds {
		if d.url == t.router.Ring().Primary(fp) {
			primary = d
		}
	}
	for _, wireCodec := range []bool{true, false} {
		c, err := client.New(client.Config{BaseURL: primary.url, MaxAttempts: 1, Wire: wireCodec})
		if err != nil {
			return err
		}
		name := map[bool]string{true: "wire", false: "json"}[wireCodec]
		d, allocs, err := tcpRung(ctx, t.ds, c, q)
		if err != nil {
			return err
		}
		m["ladder.tcp_"+name+"_us"], m["ladder.tcp_"+name+"_allocs"] = us(d), allocs
	}
	for _, wireCodec := range []bool{false, true} {
		rt, err := cluster.NewRouter(cluster.RouterConfig{Peers: t.router.Ring().Peers(), Local: t.local, Client: client.Config{Wire: wireCodec}})
		if err != nil {
			return err
		}
		name := map[bool]string{true: "wire", false: "json"}[wireCodec]
		d, allocs, err := tcpRung(ctx, t.ds, rt, q)
		if err != nil {
			return err
		}
		m["ladder.routed_"+name+"_us"], m["ladder.routed_"+name+"_allocs"] = us(d), allocs
	}
	m["ladder.peer_hop_x"] = ratio(m["ladder.routed_json_us"], m["ladder.tcp_wire_us"])
	r.Notes = append(r.Notes, fmt.Sprintf(
		"ladder (20-join query): cache get %.1fns, fingerprint %.1fus, OptimizeQuery %.1fus, handler wire/json %.1f/%.1fus, tcp wire/json %.1f/%.1fus, routed json/wire %.1f/%.1fus; peer hop %.2fx",
		m["ladder.plancache_get_ns"], m["ladder.fingerprint_us"], m["ladder.optimize_query_us"],
		m["ladder.handler_wire_us"], m["ladder.handler_json_us"], m["ladder.tcp_wire_us"], m["ladder.tcp_json_us"],
		m["ladder.routed_json_us"], m["ladder.routed_wire_us"], m["ladder.peer_hop_x"]))
	return nil
}

// tcpRung times sequential hits through opt and returns the time per
// request and the daemons' heap allocations per request. Reading the heap
// profile allocates too; that cost is measured with no requests between
// two readings and subtracted.
func tcpRung(ctx context.Context, ds []*daemon, opt optimizer, q *catalog.Query) (float64, float64, error) {
	var err error
	call := func() {
		if _, e := opt.Optimize(ctx, q); e != nil && err == nil {
			err = e
		}
	}
	for i := 0; i < 50; i++ { // connections up, pools warm
		call()
	}
	base0, err0 := totalMallocs(ctx, ds)
	base1, err1 := totalMallocs(ctx, ds)
	const iters = 400
	d := timeRung(iters, call)
	after, err2 := totalMallocs(ctx, ds)
	for _, e := range []error{err, err0, err1, err2} {
		if e != nil {
			return 0, 0, e
		}
	}
	perRead := base1 - base0
	return d, (after - base1 - perRead) / (ladderBatches * iters), nil
}

func totalMallocs(ctx context.Context, ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		v, err := d.mallocs(ctx)
		if err != nil {
			return 0, err
		}
		total += float64(v)
	}
	return total, nil
}
