package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/serve"
)

// The yardstick is a frozen reference server: this benchmark's own binary,
// started as a second process the way ljqd is, answers a small JSON
// document by decoding it, hashing it and encoding it back. Its path is
// an ljqd request's — exec and start-up, loopback TCP, net/http, JSON,
// hashing, allocation, the Go scheduler — built only from the standard
// library and this file, which no change to the repository touches.
//
// The box the benchmark runs on is shared: from one run to the next the
// same requests took up to twice as long and ljqd's own CPU time per
// request moved by 20%, while ljqd and the yardstick moved together
// (their median latencies correlated at 0.998 over ten seeds). The bench
// therefore sends one request in yardShare to the yardstick, interleaved
// with ljqd's in the same loop, and scales every timing metric by the
// yardstick's reference reading over its reading in the same phase: the
// time ljqd would take were the box as fast as when the references were
// taken. The measured and the yardstick's readings are printed beside
// each run and reported as harness.* per-layer metrics.
const yardShare = 10

// Reference readings of the yardstick on the 2-vCPU box the benchmark was
// defined on.
const (
	yardRefService = 0.33   // ms, median service time in the fixed-rate phase
	yardRefClosed  = 0.25   // ms, median latency in the closed loop
	yardRefCPU     = 0.18   // ms of CPU per request in the fixed-rate phase
	yardRefSetup   = 0.0042 // s from exec to ready
)

type yardDoc struct {
	Name  string    `json:"name"`
	Sizes []float64 `json:"sizes"`
	Edges [][2]int  `json:"edges"`
	Hash  string    `json:"hash,omitempty"`
}

var yardBody = func() []byte {
	d := yardDoc{Name: "yardstick"}
	for i := 0; i < 40; i++ {
		d.Sizes = append(d.Sizes, float64(i*i)+0.5)
		d.Edges = append(d.Edges, [2]int{i, (i * 7) % 40})
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return b
}()

func yardHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet { // readiness
		fmt.Fprintln(w, "ok")
		return
	}
	var d yardDoc
	if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d.Hash = fmt.Sprintf("%x", sha256.Sum256(yardBody))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&d) // a failed write shows up as a client error
}

// serveYardstick is the yardstick process: it serves until killed.
func serveYardstick(addr string) error {
	return http.ListenAndServe(addr, http.HandlerFunc(yardHandler))
}

// yardstick is a running yardstick process and a client for it. The
// client satisfies optimizer, so the load loops can interleave its
// requests with ljqd's.
type yardstick struct {
	*daemon
	c *http.Client
}

// startYardstick re-execs this binary as the yardstick and returns once it
// answers, with the time that took.
func startYardstick(ctx context.Context) (*yardstick, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ports, err := freePorts(1)
	if err != nil {
		return nil, 0, err
	}
	begin := time.Now()
	d, err := startProcess(ports[0], self, "yardstick-serve", fmt.Sprintf("127.0.0.1:%d", ports[0]))
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitReady(ctx, 10*time.Second); err != nil {
		d.stop()
		return nil, 0, err
	}
	return &yardstick{daemon: d, c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}}, time.Since(begin), nil
}

func (y *yardstick) Optimize(ctx context.Context, _ *catalog.Query) (*serve.OptimizeResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, y.url+"/", bytes.NewReader(yardBody))
	if err != nil {
		return nil, err
	}
	resp, err := y.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("yardstick answered %s", resp.Status)
	}
	var d yardDoc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, fmt.Errorf("yardstick answer: %w", err)
	}
	return &serve.OptimizeResponse{}, nil
}
