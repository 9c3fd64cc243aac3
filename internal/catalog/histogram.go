package catalog

import (
	"errors"
	"fmt"
)

// Histogram is an equi-width frequency histogram over a join column's
// integer domain [0, Domain): bucket b covers values
// [b·Domain/len(Counts), (b+1)·Domain/len(Counts)) and Counts[b] is the
// number of rows falling in it.
//
// Histograms refine the flat distinct-count model: under skew (a few
// hot values carrying most rows) the containment assumption
// J = 1/max(D_l, D_r) underestimates join results badly, while
// per-bucket estimation tracks them. Predicates may carry a histogram
// per side; the estimator uses them when both sides have one with the
// same domain and bucket count, and falls back to distinct counts
// otherwise.
type Histogram struct {
	// Domain is the number of possible column values.
	Domain int64
	// Counts holds one row count per bucket.
	Counts []float64
}

// Validate checks structural sanity.
func (h *Histogram) Validate() error {
	if h == nil {
		return nil
	}
	if h.Domain < 1 {
		return fmt.Errorf("catalog: histogram domain %d < 1", h.Domain)
	}
	if len(h.Counts) == 0 {
		return errors.New("catalog: histogram has no buckets")
	}
	if int64(len(h.Counts)) > h.Domain {
		return fmt.Errorf("catalog: %d buckets over a domain of %d", len(h.Counts), h.Domain)
	}
	for i, c := range h.Counts {
		if c < 0 {
			return fmt.Errorf("catalog: bucket %d has negative count %g", i, c)
		}
	}
	return nil
}

// Rows returns the total row count.
func (h *Histogram) Rows() float64 {
	t := 0.0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// bucketWidth returns the value width of bucket b (the last bucket
// absorbs the remainder).
func (h *Histogram) bucketWidth(b int) float64 {
	n := int64(len(h.Counts))
	base := h.Domain / n
	if int64(b) == n-1 {
		return float64(base + h.Domain%n)
	}
	return float64(base)
}

// Aligned reports whether two histograms share domain and bucketing, so
// they can be joined bucket-by-bucket.
func (h *Histogram) Aligned(o *Histogram) bool {
	return h != nil && o != nil && h.Domain == o.Domain && len(h.Counts) == len(o.Counts)
}

// JoinSelectivity estimates the equi-join selectivity between two
// aligned histograms: expected matches per bucket are
// count_l·count_r/width (uniform within the bucket), and the
// selectivity is total matches / (rows_l · rows_r). Returns ok=false
// for misaligned or empty inputs.
func (h *Histogram) JoinSelectivity(o *Histogram) (float64, bool) {
	if !h.Aligned(o) {
		return 0, false
	}
	rl, rr := h.Rows(), o.Rows()
	if rl <= 0 || rr <= 0 {
		return 0, false
	}
	matches := 0.0
	for b := range h.Counts {
		w := h.bucketWidth(b)
		if w <= 0 {
			continue
		}
		matches += h.Counts[b] * o.Counts[b] / w
	}
	return matches / (rl * rr), true
}
