package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/wire"
	joinworkload "joinopt/internal/workload"
)

// Stream kinds keep the random streams drawn from one seed apart.
const (
	kindPool  = 1 << 8 // + workload.PoolKind
	kindFresh = 2 << 8
	kindSeq   = 3 << 8 // + phase
	kindArr   = 4 << 8 // + phase
	kindYard  = 5 << 8 // + phase
)

// Phases of one run, in order.
const (
	phaseWarm = iota
	phaseFixed
	phaseClosed
	numPhases
)

var phaseNames = [numPhases]string{"warm", "fixed", "closed"}

// splitmix is a math/rand Source that costs nothing to seed, so every
// query shape can own its own stream and be rebuilt on its own.
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) Int63() int64    { return int64(r.Uint64() >> 1) }
func (r *splitmix) Seed(seed int64) { r.s = uint64(seed) }

// stream returns the random stream for (seed, kind, index).
func stream(seed int64, kind, index uint64) *rand.Rand {
	m := splitmix{s: uint64(seed)}
	m.s ^= m.Uint64() + kind
	m.s ^= m.Uint64() + index
	return rand.New(&splitmix{s: m.Uint64()})
}

// genQuery builds one §5-default query whose join count is drawn from
// [nMin, nMax], from its own stream.
func genQuery(seed int64, kind, index uint64, nMin, nMax int) *catalog.Query {
	r := stream(seed, kind, index)
	return joinworkload.Default().Generate(nMin+r.Intn(nMax-nMin+1), r)
}

// A shape reference names the query of one request: ref >= 0 is recurring
// pool shape ref; ref < 0 is fresh shape -1-ref, drawn from the run seed.
// freshStride keeps the fresh shapes of different phases apart.
const freshStride = 1 << 24

// pool holds a workload's recurring shapes as wire frames, a third of the
// size of the decoded queries, back to back in one pointer-free buffer
// the garbage collector need not scan; fresh shapes are rebuilt on
// demand.
type pool struct {
	w    *workload
	seed int64
	data []byte
	end  []int64 // shape i is data[end[i-1]:end[i]]
}

func newPool(w *workload, seed int64) *pool {
	p := &pool{w: w, seed: seed, end: make([]int64, w.Pool)}
	var halves [2][]byte
	mid := w.Pool / 2
	parallel(2, func(h int) {
		lo, hi := h*mid, mid+h*(w.Pool-mid)
		var buf []byte
		for i := lo; i < hi; i++ {
			buf = wire.AppendQuery(buf, genQuery(poolSeed, kindPool+w.PoolKind, uint64(i), w.NMin, w.NMax))
			p.end[i] = int64(len(buf))
		}
		halves[h] = buf
	})
	p.data = append(halves[0], halves[1]...)
	for i := mid; i < w.Pool; i++ {
		p.end[i] += int64(len(halves[0]))
	}
	return p
}

func (p *pool) body(i int) []byte {
	start := int64(0)
	if i > 0 {
		start = p.end[i-1]
	}
	return p.data[start:p.end[i]]
}

// query materializes the query for a shape reference. Each call returns a
// fresh copy the caller may keep.
func (p *pool) query(ref int32) *catalog.Query {
	if ref < 0 {
		return genQuery(p.seed, kindFresh, uint64(-1-int64(ref)), p.w.NMin, p.w.NMax)
	}
	q, err := wire.DecodeQuery(p.body(int(ref)))
	if err != nil {
		panic(fmt.Sprintf("pool shape %d does not decode: %v", ref, err))
	}
	return q
}

// picker draws the shape sequence of one phase. It depends on the pool
// kind, not the workload, so workloads sharing a pool send the same
// sequence.
type picker struct {
	w     *workload
	rng   *rand.Rand
	zipf  *rand.Zipf
	fresh int64
}

func newPicker(w *workload, seed int64, phase int) *picker {
	p := &picker{w: w, rng: stream(seed, kindSeq+w.PoolKind<<4, uint64(phase)), fresh: int64(phase) * freshStride}
	if w.Zipf > 0 {
		p.zipf = rand.NewZipf(p.rng, w.Zipf, 1, uint64(w.Pool-1))
	}
	return p
}

func (p *picker) next() int32 {
	if p.w.Fresh > 0 && p.rng.Float64() < p.w.Fresh {
		p.fresh++
		return int32(-p.fresh)
	}
	if p.zipf != nil {
		return int32(p.zipf.Uint64())
	}
	return int32(p.rng.Intn(p.w.Pool))
}

// request is one open-loop arrival.
type request struct {
	Due   time.Duration // from the phase start
	Shape int32
}

// schedule draws the Poisson arrivals of one open-loop phase at rate
// requests per second, with the phase's shape sequence.
func schedule(w *workload, seed int64, phase int, d time.Duration, rate float64) []request {
	pick := newPicker(w, seed, phase)
	var out []request
	for _, due := range arrivals(stream(seed, kindArr, uint64(phase)), rate, d) {
		out = append(out, request{Due: due, Shape: pick.next()})
	}
	return out
}

// arrivals draws Poisson arrival times at rate per second within d.
func arrivals(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := r.ExpFloat64() / rate; time.Duration(t*float64(time.Second)) < d; t += r.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// yardShape marks a request for the yardstick in a schedule.
const yardShape = int32(-1 << 31)

// withYardstick merges into reqs a Poisson stream of yardstick requests
// at one yardShare-th of rate, drawn from its own stream.
func withYardstick(reqs []request, seed int64, phase int, d time.Duration, rate float64) []request {
	out := make([]request, 0, len(reqs)+len(reqs)/yardShare+1)
	i := 0
	for _, due := range arrivals(stream(seed, kindYard, uint64(phase)), rate/yardShare, d) {
		for ; i < len(reqs) && reqs[i].Due <= due; i++ {
			out = append(out, reqs[i])
		}
		out = append(out, request{Due: due, Shape: yardShape})
	}
	return append(out, reqs[i:]...)
}

// sequence draws n shapes of a closed-loop phase.
func sequence(w *workload, seed int64, phase, n int) []int32 {
	pick := newPicker(w, seed, phase)
	out := make([]int32, n)
	for i := range out {
		out[i] = pick.next()
	}
	return out
}

// parallel runs f(0..n-1) on one goroutine per CPU of the box.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}()
	}
	wg.Wait()
}
