// Package slotresolveok holds clean breaker-slot patterns the
// slotresolve analyzer must accept without diagnostics.
package slotresolveok

// Breaker mimics internal/client's circuit breaker surface.
type Breaker struct{ n int }

func (b *Breaker) Allow() bool { return b.n > 0 }
func (b *Breaker) Success()    {}
func (b *Breaker) Failure()    {}
func (b *Breaker) Cancel()     {}

// Health is a name-keyed per-peer breaker view.
type Health struct{}

func (h *Health) Allow(peer string) bool      { return peer != "" }
func (h *Health) ReportSuccess(peer string)   {}
func (h *Health) ReportFailure(peer string)   {}
func (h *Health) ReportCancelled(peer string) {}

// allPaths resolves on success, failure and guard-rejected paths.
func allPaths(b *Breaker, work func() error) error {
	if !b.Allow() {
		return nil
	}
	if err := work(); err != nil {
		b.Failure()
		return err
	}
	b.Success()
	return nil
}

// deferredCancel resolves through a defer, covering panic exits too.
func deferredCancel(b *Breaker, work func()) {
	if !b.Allow() {
		return
	}
	defer b.Cancel()
	work()
}

// transferToCaller hands the claim to the caller: the wrapper pattern
// client.Breaker.Allow uses around its state machine.
type Gate struct {
	open bool
	b    *Breaker
}

func (g *Gate) Allow() bool {
	return g.open && g.b.Allow()
}

// probeLoop claims and resolves per iteration, keyed by peer.
func probeLoop(h *Health, peers []string, probe func(string) error) {
	for _, p := range peers {
		if !h.Allow(p) {
			continue
		}
		if probe(p) != nil {
			h.ReportFailure(p)
		} else {
			h.ReportSuccess(p)
		}
	}
}

// reap is a loser-reaping helper: calling it resolves live claims via
// the one-level interprocedural summary.
func reap(h *Health, peers []string) {
	for _, p := range peers {
		h.ReportCancelled(p)
	}
}

func hedged(h *Health, peers []string) {
	var launched []string
	for _, p := range peers {
		if !h.Allow(p) {
			continue
		}
		launched = append(launched, p)
	}
	reap(h, launched)
}

// asyncResolve resolves inside a goroutine launched on the claiming
// path; the lexical-resolution heuristic credits it.
func asyncResolve(b *Breaker, work func() error) {
	if !b.Allow() {
		return
	}
	go func() {
		if err := work(); err != nil {
			b.Failure()
		} else {
			b.Success()
		}
	}()
}

// boundFlag resolves through the bound result variable's branches.
func boundFlag(b *Breaker, work func()) {
	ok := b.Allow()
	if !ok {
		return
	}
	work()
	b.Success()
}
