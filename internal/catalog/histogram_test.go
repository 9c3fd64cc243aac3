package catalog

import (
	"math"
	"testing"
)

func uniformHist(domain int64, buckets int, rows float64) *Histogram {
	h := &Histogram{Domain: domain, Counts: make([]float64, buckets)}
	for i := range h.Counts {
		h.Counts[i] = rows / float64(buckets)
	}
	return h
}

func TestHistogramValidate(t *testing.T) {
	var nilH *Histogram
	if err := nilH.Validate(); err != nil {
		t.Fatal("nil histogram must validate (absent)")
	}
	if err := (&Histogram{Domain: 0, Counts: []float64{1}}).Validate(); err == nil {
		t.Fatal("zero domain accepted")
	}
	if err := (&Histogram{Domain: 5}).Validate(); err == nil {
		t.Fatal("no buckets accepted")
	}
	if err := (&Histogram{Domain: 2, Counts: []float64{1, 1, 1}}).Validate(); err == nil {
		t.Fatal("more buckets than domain accepted")
	}
	if err := (&Histogram{Domain: 5, Counts: []float64{1, -1}}).Validate(); err == nil {
		t.Fatal("negative count accepted")
	}
	if err := uniformHist(100, 10, 500).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRowsAndWidth(t *testing.T) {
	h := &Histogram{Domain: 10, Counts: []float64{3, 4, 5}}
	if h.Rows() != 12 {
		t.Fatalf("rows %g", h.Rows())
	}
	// 10/3 = 3 wide, last bucket absorbs remainder: 3,3,4.
	if h.bucketWidth(0) != 3 || h.bucketWidth(2) != 4 {
		t.Fatalf("widths %g %g", h.bucketWidth(0), h.bucketWidth(2))
	}
}

// TestUniformHistogramMatchesContainment: for uniform data the
// histogram selectivity must agree with the classical 1/D.
func TestUniformHistogramMatchesContainment(t *testing.T) {
	const d = 100
	l := uniformHist(d, 10, 1000)
	r := uniformHist(d, 10, 500)
	j, ok := l.JoinSelectivity(r)
	if !ok {
		t.Fatal("aligned histograms rejected")
	}
	if math.Abs(j-1.0/d) > 1e-12 {
		t.Fatalf("uniform histogram J = %g, want %g", j, 1.0/d)
	}
}

// TestSkewRaisesSelectivity: concentrating both sides on few values
// must raise the join selectivity above the uniform 1/D.
func TestSkewRaisesSelectivity(t *testing.T) {
	const d = 100
	skewed := &Histogram{Domain: d, Counts: make([]float64, 10)}
	skewed.Counts[0] = 900 // hot bucket
	for i := 1; i < 10; i++ {
		skewed.Counts[i] = 100.0 / 9
	}
	j, ok := skewed.JoinSelectivity(skewed)
	if !ok {
		t.Fatal("rejected")
	}
	if j <= 1.0/d {
		t.Fatalf("skewed J %g not above uniform %g", j, 1.0/d)
	}
}

func TestJoinSelectivityMisaligned(t *testing.T) {
	a := uniformHist(100, 10, 100)
	b := uniformHist(100, 5, 100)
	if _, ok := a.JoinSelectivity(b); ok {
		t.Fatal("misaligned buckets accepted")
	}
	c := uniformHist(50, 10, 100)
	if _, ok := a.JoinSelectivity(c); ok {
		t.Fatal("misaligned domains accepted")
	}
	var nilH *Histogram
	if _, ok := nilH.JoinSelectivity(a); ok {
		t.Fatal("nil accepted")
	}
	empty := &Histogram{Domain: 100, Counts: make([]float64, 10)}
	if _, ok := a.JoinSelectivity(empty); ok {
		t.Fatal("empty rows accepted")
	}
}

func TestNormalizeSwapsHistograms(t *testing.T) {
	l := uniformHist(10, 2, 5)
	r := uniformHist(20, 2, 5)
	p := Predicate{Left: 3, Right: 1, LeftDistinct: 2, RightDistinct: 4, LeftHist: l, RightHist: r}
	p.Normalize()
	if p.LeftHist != r || p.RightHist != l {
		t.Fatal("histograms not swapped with endpoints")
	}
}

func TestValidateChecksHistograms(t *testing.T) {
	q := validQuery()
	q.Predicates[0].LeftHist = &Histogram{Domain: 0, Counts: []float64{1}}
	if err := q.Validate(); err == nil {
		t.Fatal("bad histogram accepted")
	}
}
