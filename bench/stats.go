package main

import (
	"math"
	"sort"
	"time"
)

// rank is the 1-based nearest rank of the p-quantile of n samples. The
// tolerance keeps 0.9*100 at 90, not 90.00000000000001.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule; +Inf entries stand for failed requests.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[max(0, min(rank(p, len(sorted)), len(sorted))-1)]
}

// supportedPercentiles lists the percentiles the benchmark reports, in
// increasing order.
var supportedPercentiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestSupported returns the highest of supportedPercentiles with at
// least ten samples beyond it in a sample of n, or 0 if none has.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range supportedPercentiles {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// latencies turns records into sorted milliseconds, failures as +Inf.
func latencies(recs []record) []float64 {
	return sortedMs(recs, func(r *record) time.Duration { return r.Lat })
}

// serviceTimes is latencies without the wait for a free worker: from the
// send to the response.
func serviceTimes(recs []record) []float64 {
	return sortedMs(recs, func(r *record) time.Duration { return r.Lat - r.Wait })
}

func sortedMs(recs []record, d func(r *record) time.Duration) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		if recs[i].OK {
			out[i] = float64(d(&recs[i])) / 1e6
		} else {
			out[i] = math.Inf(1)
		}
	}
	sort.Float64s(out)
	return out
}

// finite reports a value for the result line: JSON has no +Inf, so a
// percentile that lands on a failed request reads as the largest float.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// quartiles returns the median and the first and third quartiles, by the
// same exclusive method as Python's statistics.quantiles(values, n=4).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // the i-th of the 3 cut points
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func medianOf(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// ratio is a/b, or 0 when b is 0 (a per-request rate with no requests).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
