// Package suite maps the ljqlint analyzers onto the repository's
// packages. Analyzers are whole-package checks; *which* packages each
// invariant governs is policy, and this package is where that policy
// lives (the analyzers themselves stay scope-free, like x/tools
// analyzers).
package suite

import (
	"strings"

	"joinopt/internal/analysis"
	"joinopt/internal/analysis/budgetcharge"
	"joinopt/internal/analysis/ctxflow"
	"joinopt/internal/analysis/detrand"
	"joinopt/internal/analysis/errsink"
	"joinopt/internal/analysis/floatsafe"
	"joinopt/internal/analysis/hotalloc"
	"joinopt/internal/analysis/lockhold"
	"joinopt/internal/analysis/panicguard"
	"joinopt/internal/analysis/slotresolve"
)

// Module is the module path the scopes are expressed against.
const Module = "joinopt"

// Entry pairs an analyzer with the packages it governs.
type Entry struct {
	Analyzer *analysis.Analyzer
	// InScope reports whether the analyzer applies to the package.
	InScope func(importPath string) bool
}

// meteredPackages are the packages that perform search work under the
// shared budget: the budget-accounting invariant lives here.
var meteredPackages = []string{
	"internal/plan", "internal/search", "internal/heuristics",
	"internal/dp", "internal/bushy", "internal/core",
}

// Entries returns the suite: every analyzer with its package scope.
//
//   - budgetcharge: the metered search packages only — other code may
//     price joins freely (the engine *executes* them; cmd tools
//     explain them).
//   - detrand, floatsafe, ctxflow, panicguard: the public facade and
//     all of internal/ except internal/analysis itself (the linter is
//     not on the optimizer's seeded trajectory; keeping it out of
//     scope avoids self-referential directive noise) — floatsafe and
//     ctxflow do include internal/analysis.
//   - slotresolve: the packages that speak the breaker slot protocol —
//     the resilient client (breaker state machine), the cluster router
//     and rebalancer (one breaker per peer), and serve (which owns the
//     daemon wiring).
//   - errsink: the durability paths — vfs, persist and serve (which
//     flushes snapshots on drain). cluster is out of scope: its one
//     Close is an http response body on a best-effort warm-start path.
//   - lockhold: the concurrency-bearing serving layers — serve,
//     plancache, cluster and client, where a blocked critical section
//     convoys live requests.
//   - hotalloc: everywhere — the directive is opt-in per function, so
//     whole-tree scope costs nothing where nothing is annotated.
func Entries() []Entry {
	return []Entry{
		{budgetcharge.Analyzer, within(meteredPackages...)},
		{detrand.Analyzer, allInternalExcept("internal/analysis")},
		{floatsafe.Analyzer, allInternal()},
		{ctxflow.Analyzer, allInternal()},
		{panicguard.Analyzer, allInternalExcept("internal/analysis")},
		{slotresolve.Analyzer, within("internal/client", "internal/cluster", "internal/serve")},
		{errsink.Analyzer, within("internal/vfs", "internal/persist", "internal/serve")},
		{lockhold.Analyzer, within("internal/serve", "internal/plancache", "internal/cluster", "internal/client")},
		{hotalloc.Analyzer, allInternal()},
	}
}

// For returns the analyzers governing one package.
func For(importPath string) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, e := range Entries() {
		if e.InScope(importPath) {
			out = append(out, e.Analyzer)
		}
	}
	return out
}

// within matches the module-relative package paths given.
func within(rels ...string) func(string) bool {
	set := map[string]bool{}
	for _, r := range rels {
		set[Module+"/"+r] = true
	}
	return func(ip string) bool { return set[ip] }
}

// allInternal matches the module root package and everything under
// internal/.
func allInternal() func(string) bool {
	return func(ip string) bool {
		return ip == Module || strings.HasPrefix(ip, Module+"/internal/")
	}
}

// allInternalExcept is allInternal minus the given module-relative
// subtrees.
func allInternalExcept(rels ...string) func(string) bool {
	base := allInternal()
	return func(ip string) bool {
		if !base(ip) {
			return false
		}
		for _, r := range rels {
			full := Module + "/" + r
			if ip == full || strings.HasPrefix(ip, full+"/") {
				return false
			}
		}
		return true
	}
}
