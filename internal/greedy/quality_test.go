package greedy

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/core"
	"joinopt/internal/cost"
	"joinopt/internal/dp"
	"joinopt/internal/fingerprint"
	"joinopt/internal/plan"
	"joinopt/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/quality.golden from this tree's plans")

const qualityGolden = "testdata/quality.golden"

// The gate's tolerances: how far a per-N summary of cost ÷ best known
// may worsen, relative to the one recorded in the golden file, before
// the gate fails. The share of plans at ten times the best or more may
// not rise at all; shareSlack only absorbs the golden's rounding to six
// digits.
const (
	gmeanTolerance = 0.01
	p90Tolerance   = 0.05
	maxTolerance   = 0.10
	shareSlack     = 1e-6
)

// beatSlack is the relative margin by which a plan must undercut its
// best-known cost or its bound to count as beating it: enough to absorb
// a fused multiply-add on another architecture, far below any real
// improvement.
const beatSlack = 1e-9

// tier1Ceiling is the largest multiple of its best-known cost a Tier-1
// plan may reach, exclusive.
const tier1Ceiling = 1e4

// boundJoins is the largest join count whose queries the golden file
// records a certified lower bound for: dp.Optimal handles up to
// dp.MaxDPRelations relations.
const boundJoins = 20

// qualityQuery is one corpus query, canonically relabeled as ljqd
// plans it.
type qualityQuery struct {
	name  string
	joins int
	cq    *catalog.Query
}

var qualityJoins = []int{10, 20, 30, 40, 50, 60}

// qualityCorpus is workload.Default() and every workload.Shapes
// topology at 10–60 joins, four queries each.
func qualityCorpus(t *testing.T) []qualityQuery {
	t.Helper()
	var out []qualityQuery
	add := func(name string, joins int, q *catalog.Query) {
		_, order := fingerprint.Canonical(q)
		out = append(out, qualityQuery{name, joins, fingerprint.Relabel(q, order)})
	}
	for _, n := range qualityJoins {
		for seed := int64(1); seed <= 4; seed++ {
			src := int64(n)*100 + seed
			add(fmt.Sprintf("default/n=%d/seed=%d", n, seed), n,
				workload.Default().Generate(n, rand.New(rand.NewSource(src))))
			for _, sh := range workload.Shapes {
				q, err := workload.Default().GenerateShape(sh, n+1, rand.New(rand.NewSource(src)))
				if err != nil {
					t.Fatalf("%s n=%d: generate: %v", sh, n, err)
				}
				add(fmt.Sprintf("%s/n=%d/seed=%d", sh, n, seed), n, q)
			}
		}
	}
	return out
}

// iaiCost runs IAI over cq at coefficient tc under seed, warm-started
// from incumbent, as the serving layer's full search does, and returns
// its plan's total cost.
func iaiCost(t *testing.T, cq *catalog.Query, incumbent plan.Perm, tc float64, seed int64) float64 {
	t.Helper()
	budget := cost.NewBudget(cost.UnitsFor(tc, max(len(cq.Relations)-1, 1)))
	opt, err := core.NewOptimizer(cq, cost.NewMemoryModel(), budget, rand.New(rand.NewSource(seed)), core.Options{Incumbent: incumbent})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := opt.RunContext(context.Background(), core.IAI)
	if pl == nil {
		t.Fatal(err)
	}
	return pl.TotalCost
}

// kStartCost is the cost of the cheapest order grown under either
// criterion from p's k smallest relations (every relation when k ≥ N)
// on a one-component query: what Plan would return were numStarts k.
func kStartCost(p *Planner, k int) float64 {
	a, b := int(p.compOff[0]), int(p.compOff[1])
	starts := slices.Clone(p.comps[a:b])
	sortStarts(p, starts)
	best := math.Inf(1)
	for _, crit := range []criterion{minCost, minSel} {
		for _, s := range starts[:min(k, len(starts))] {
			if _, total, _ := p.grow(a, b, s, math.Inf(1), crit); total < best {
				best = total
			}
		}
	}
	return best
}

// staticBound is the optimum of the one-component query cq under the
// static estimator, which dp.Optimal computes exactly. Every dynamic
// selectivity factor is at least its static one and the memory model
// is monotone, so no order of cq costs less than this under the
// dynamic estimator that serving prices with.
func staticBound(t *testing.T, cq *catalog.Query) float64 {
	t.Helper()
	eval := oracleEval(t, cq)
	_, c, err := dp.Optimal(eval, eval.Stats().Graph().Components()[0])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// qualitySummary is one per-N summary of cost ÷ best known.
type qualitySummary struct {
	gmean, p90, max, share10 float64
}

func summarize(ratios []float64) qualitySummary {
	s := slices.Clone(ratios)
	slices.Sort(s)
	logSum, over := 0.0, 0
	for _, r := range s {
		logSum += math.Log(r)
		if r >= 10 {
			over++
		}
	}
	n := float64(len(s))
	return qualitySummary{
		gmean:   math.Exp(logSum / n),
		p90:     s[int(math.Ceil(0.9*n))-1],
		max:     s[len(s)-1],
		share10: float64(over) / n,
	}
}

func (s qualitySummary) String() string {
	return fmt.Sprintf("gmean=%s p90=%s max=%s share10=%s", fmtRatio(s.gmean), fmtRatio(s.p90), fmtRatio(s.max), fmtRatio(s.share10))
}

func fmtRatio(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }

// TestPlanQualityGate prices Tier 1 (Plan) and Tier 2 (IAI at t=9,
// seed 1, warm-started from Plan's order, as ljqd upgrades a miss)
// against the best-known cost of every corpus query, the §6.1 scaled
// cost EXPERIMENTS.md reports. Best known is the minimum of the two
// tiers and of IAI at t=81 over seeds 1–3, recorded as exact float
// bits in testdata/quality.golden together with each tier's per-N
// summaries: geometric mean, p90, maximum and the share at ten times
// the best or more. For the queries of at most boundJoins joins the
// golden also records staticBound, a certified lower bound. The gate
// fails when a summary worsens past its tolerance, when a Tier-1 plan
// reaches tier1Ceiling times its best known, when a cost falls below
// its bound, or when a plan beats its best-known cost: the golden is
// then stale and `go test ./internal/greedy -run TestPlanQualityGate
// -update` regenerates it. It reports each tier's cost ÷ bound, a
// certified gap. With -v it also reports what one, eight and every
// start would give Tier 1, and Tier 2 at seeds 2–4.
func TestPlanQualityGate(t *testing.T) {
	corpus := qualityCorpus(t)
	tier1 := make([]float64, len(corpus))
	tier2 := make([]float64, len(corpus))
	orders := make([]plan.Perm, len(corpus))
	// Tier 1 from one, eight and every start, and Tier 2 at seeds 2–4,
	// reported with -v.
	otherStarts := []int{1, 8, math.MaxInt}
	otherCosts := make([][]float64, len(otherStarts))
	otherSeeds := []int64{2, 3, 4}
	seedCosts := make([][]float64, len(otherSeeds))
	for i, q := range corpus {
		p, err := New(q.cq, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.compOff) != 2 {
			t.Fatalf("%s: %d components, want 1", q.name, len(p.compOff)-1)
		}
		res := p.Plan()
		tier1[i] = res.TotalCost
		orders[i] = res.Order // p plans nothing more
		tier2[i] = iaiCost(t, q.cq, orders[i], 9, 1)
		if testing.Verbose() {
			for j, k := range otherStarts {
				otherCosts[j] = append(otherCosts[j], kStartCost(p, k))
			}
			for j, seed := range otherSeeds {
				seedCosts[j] = append(seedCosts[j], iaiCost(t, q.cq, orders[i], 9, seed))
			}
		}
	}

	if *update {
		writeQualityGolden(t, corpus, orders, tier1, tier2)
	}
	best, bound, want := readQualityGolden(t)

	ratios := func(costs []float64, n int, denom map[string]float64) []float64 {
		var out []float64
		for i, q := range corpus {
			if q.joins == n {
				out = append(out, costs[i]/denom[q.name])
			}
		}
		return out
	}
	for i, q := range corpus {
		b, ok := best[q.name]
		if !ok {
			t.Fatalf("%s: no best-known cost in %s; regenerate with -update", q.name, qualityGolden)
		}
		lb, bounded := bound[q.name]
		if q.joins <= boundJoins && !bounded {
			t.Fatalf("%s: no bound in %s; regenerate with -update", q.name, qualityGolden)
		}
		if tier1[i] >= tier1Ceiling*b {
			t.Errorf("%s: tier 1 cost %g is %.4gx the best known %g, at or past the %gx ceiling", q.name, tier1[i], tier1[i]/b, b, tier1Ceiling)
		}
		for tier, c := range []float64{tier1[i], tier2[i]} {
			if c < b*(1-beatSlack) {
				t.Errorf("%s: tier %d cost %g beats the best known %g; regenerate %s with -update", q.name, tier+1, c, b, qualityGolden)
			}
			if bounded && c < lb*(1-beatSlack) {
				t.Errorf("%s: tier %d cost %g falls below its bound %g", q.name, tier+1, c, lb)
			}
		}
	}
	bestCosts := make([]float64, len(corpus))
	for i, q := range corpus {
		bestCosts[i] = best[q.name]
	}
	for _, n := range qualityJoins {
		if n <= boundJoins {
			t.Logf("best n=%d / bound: %v", n, summarize(ratios(bestCosts, n, bound)))
		}
		for tier, costs := range [][]float64{tier1, tier2} {
			key := fmt.Sprintf("tier%d n=%d", tier+1, n)
			got := summarize(ratios(costs, n, best))
			t.Logf("%s: %v", key, got)
			w, ok := want[key]
			if !ok {
				t.Fatalf("%s: no summary in %s; regenerate with -update", key, qualityGolden)
			}
			if got.gmean > w.gmean*(1+gmeanTolerance) || got.p90 > w.p90*(1+p90Tolerance) ||
				got.max > w.max*(1+maxTolerance) || got.share10 > w.share10+shareSlack {
				t.Errorf("%s worsened: %v, golden %v", key, got, w)
			}
			if n <= boundJoins {
				t.Logf("%s / bound: %v", key, summarize(ratios(costs, n, bound)))
			}
		}
		if testing.Verbose() {
			for j, k := range otherStarts {
				label := strconv.Itoa(k)
				if k > n {
					label = "all"
				}
				t.Logf("tier1 n=%d starts=%s: %v", n, label, summarize(ratios(otherCosts[j], n, best)))
			}
			for j, seed := range otherSeeds {
				t.Logf("tier2 n=%d seed=%d: %v", n, seed, summarize(ratios(seedCosts[j], n, best)))
			}
		}
	}
}

// writeQualityGolden records each query's best-known cost, the
// minimum of its two tiers and of IAI at t=81 over seeds 1–3 from
// Plan's order, and the staticBound of each query of at most
// boundJoins joins, then each tier's per-N summaries against best
// known.
func writeQualityGolden(t *testing.T, corpus []qualityQuery, orders []plan.Perm, tier1, tier2 []float64) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# Best-known plan costs (float64 bits) of TestPlanQualityGate's corpus,\n")
	sb.WriteString("# certified lower bounds (float64 bits; the static-estimator DP optimum)\n")
	sb.WriteString(fmt.Sprintf("# of its queries of at most %d joins, and each tier's per-N summary of\n", boundJoins))
	sb.WriteString("# cost / best known. Regenerate with\n")
	sb.WriteString("# go test ./internal/greedy -run TestPlanQualityGate -update\n")
	best := make(map[string]float64, len(corpus))
	for i, q := range corpus {
		b := min(tier1[i], tier2[i])
		for seed := int64(1); seed <= 3; seed++ {
			b = min(b, iaiCost(t, q.cq, orders[i], 81, seed))
		}
		best[q.name] = b
		fmt.Fprintf(&sb, "best %s %016x\n", q.name, math.Float64bits(b))
	}
	for _, q := range corpus {
		if q.joins <= boundJoins {
			fmt.Fprintf(&sb, "bound %s %016x\n", q.name, math.Float64bits(staticBound(t, q.cq)))
		}
	}
	for _, n := range qualityJoins {
		for tier, costs := range [][]float64{tier1, tier2} {
			var ratios []float64
			for i, q := range corpus {
				if q.joins == n {
					ratios = append(ratios, costs[i]/best[q.name])
				}
			}
			fmt.Fprintf(&sb, "summary tier%d n=%d %v\n", tier+1, n, summarize(ratios))
		}
	}
	if err := os.MkdirAll(filepath.Dir(qualityGolden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(qualityGolden, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readQualityGolden parses the golden file writeQualityGolden wrote.
func readQualityGolden(t *testing.T) (best, bound map[string]float64, summaries map[string]qualitySummary) {
	t.Helper()
	f, err := os.Open(qualityGolden)
	if err != nil {
		t.Fatalf("%v; generate it with -update", err)
	}
	defer f.Close()
	best = make(map[string]float64)
	bound = make(map[string]float64)
	summaries = make(map[string]qualitySummary)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case (fields[0] == "best" || fields[0] == "bound") && len(fields) == 3:
			bits, err := strconv.ParseUint(fields[2], 16, 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", qualityGolden, sc.Text(), err)
			}
			dst := best
			if fields[0] == "bound" {
				dst = bound
			}
			dst[fields[1]] = math.Float64frombits(bits)
		case fields[0] == "summary" && len(fields) == 7:
			var s qualitySummary
			for i, dst := range []*float64{&s.gmean, &s.p90, &s.max, &s.share10} {
				_, v, _ := strings.Cut(fields[3+i], "=")
				if *dst, err = strconv.ParseFloat(v, 64); err != nil {
					t.Fatalf("%s: %q: %v", qualityGolden, sc.Text(), err)
				}
			}
			summaries[fields[1]+" "+fields[2]] = s
		default:
			t.Fatalf("%s: unrecognized line %q", qualityGolden, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return best, bound, summaries
}
