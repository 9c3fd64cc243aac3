package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/serve"
)

// workers is how many requests the bench keeps in flight: one per CPU of
// the 2-vCPU box the rates were set on.
const workers = 2

// optimizer is what the load loops send requests through: client.Client
// for direct workloads, cluster.Router for the routed one.
type optimizer interface {
	Optimize(ctx context.Context, q *catalog.Query) (*serve.OptimizeResponse, error)
}

// maxOrder bounds the join order a record keeps; the workloads send at
// most 41 relations.
const maxOrder = 64

// record is one request as the oracle and the metrics need it. It holds
// no pointers: a phase keeps up to ~10^5 records live, and with strings
// and slices in them every collection of the bench's heap took longer as
// the phase went on, which read as a rising ljqd latency.
type record struct {
	Lat       time.Duration // from the due time (open loop) or the send (closed loop)
	Wait      time.Duration // from the due time to the send: queueing in the generator
	Cost      float64       // reported totalCost
	Shape     int32
	Phase     int8
	Tier      int8
	OK        bool // a response arrived
	Malformed bool // its fingerprint or order cannot be stored; the oracle rejects it
	N         uint8
	FP        fingerprint.Fingerprint
	Order     [maxOrder]uint8
}

func (r *record) order() []uint8 { return r.Order[:r.N] }

// errorLog counts failed requests and keeps the first few errors.
type errorLog struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (l *errorLog) add(rec *record, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	l.keep(rec, err)
}

func (l *errorLog) keep(rec *record, err error) {
	if len(l.first) < 3 {
		l.first = append(l.first, fmt.Sprintf("%s shape %d: %v", phaseNames[rec.Phase], rec.Shape, err))
	}
}

func send(ctx context.Context, opt optimizer, q *catalog.Query, rec *record, from time.Time, errs *errorLog) {
	resp, err := opt.Optimize(ctx, q)
	rec.Lat = time.Since(from)
	if err != nil {
		errs.add(rec, err)
		return
	}
	rec.OK = true
	if rec.Shape == yardShape {
		return
	}
	rec.Tier = int8(resp.Tier)
	rec.Cost = resp.TotalCost
	fp, err := fingerprint.Parse(resp.Fingerprint)
	rec.FP = fp
	rec.Malformed = err != nil || len(resp.Order) > maxOrder
	if rec.Malformed {
		return
	}
	rec.N = uint8(len(resp.Order))
	for i, r := range resp.Order {
		if r < 0 || r >= 256 {
			rec.Malformed = true
			return
		}
		rec.Order[i] = uint8(r)
	}
}

// openLoop sends reqs at their due times with at most `workers` requests
// in flight; yardShape requests go to yard. A request waiting for a free
// worker is late, and its latency counts from the due time. lags holds
// how late each sleeping worker woke.
func openLoop(ctx context.Context, opt optimizer, p *pool, phase int, reqs []request, errs *errorLog, yard optimizer) (recs []record, lags []time.Duration) {
	recs = make([]record, len(reqs))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// nanosleep wakes within the thread's timer slack, 50µs by
			// default; pin the worker to a thread whose slack is 1ns.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			const prSetTimerSlack = 29
			_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // fails only on non-Linux, where the slack stays
			var myLags []time.Duration
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					break
				}
				o := opt
				var q *catalog.Query
				if reqs[i].Shape == yardShape {
					o = yard
				} else {
					q = p.query(reqs[i].Shape)
				}
				due := start.Add(reqs[i].Due)
				if time.Until(due) > 0 {
					sleepUntil(due)
					myLags = append(myLags, time.Since(due))
				}
				rec := &recs[i]
				rec.Shape, rec.Phase, rec.Wait = reqs[i].Shape, int8(phase), time.Since(due)
				send(ctx, o, q, rec, due, errs)
			}
			mu.Lock()
			lags = append(lags, myLags...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return recs, lags
}

// sleepUntil waits until t with the kernel timer's precision. A Go timer
// can fire up to a millisecond late when the process is otherwise idle,
// which would read as ljqd latency, so the last 2 ms are slept in
// nanosleep.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - 2*time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
		}
	}
}

// closedLoop keeps `workers` requests in flight back to back for d,
// sending every yardShare-th to yard when it is not nil. Only requests
// completed before the deadline are returned.
func closedLoop(ctx context.Context, opt optimizer, p *pool, phase int, seq []int32, d time.Duration, errs *errorLog, yard optimizer) []record {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	var out []record
	deadline := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for ctx.Err() == nil && time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				shape := seq[k%len(seq)]
				o := opt
				var q *catalog.Query
				if yard != nil && k%yardShare == yardShare-1 {
					o, shape = yard, yardShape
				} else {
					q = p.query(shape)
				}
				rec := record{Shape: shape, Phase: int8(phase)}
				send(ctx, o, q, &rec, time.Now(), errs)
				if time.Now().After(deadline) {
					break
				}
				mine = append(mine, rec)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// sendAll sends each shape once, `workers` at a time, as fast as the
// daemons answer (the pre-warm and prefill passes).
func sendAll(ctx context.Context, opt optimizer, p *pool, shapes []int32, errs *errorLog) []record {
	recs := make([]record, len(shapes))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(shapes) {
					return
				}
				recs[i] = record{Shape: shapes[i], Phase: phaseWarm}
				send(ctx, opt, p.query(shapes[i]), &recs[i], time.Now(), errs)
			}
		}()
	}
	wg.Wait()
	return recs
}
