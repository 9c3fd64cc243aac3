// Package slotresolvetest exercises the slotresolve analyzer: every
// breaker Allow that returns true claims a slot that must resolve
// exactly once on all paths.
package slotresolvetest

import "errors"

var errNo = errors.New("no")

// Breaker mimics internal/client's circuit breaker surface.
type Breaker struct{ n int }

func (b *Breaker) Allow() bool { return b.n > 0 }
func (b *Breaker) Success()    {}
func (b *Breaker) Failure()    {}
func (b *Breaker) Cancel()     {}

// Health is a name-keyed per-peer breaker view.
type Health struct{}

func (h *Health) Allow(peer string) bool     { return peer != "" }
func (h *Health) ReportSuccess(peer string)  {}
func (h *Health) ReportFailure(peer string)  {}
func (h *Health) ReportCancelled(peer string) {}

// leakOnEarlyReturn drops the slot on the error return path.
func leakOnEarlyReturn(b *Breaker, work func() error) error {
	if !b.Allow() { // want `slot may be claimed here but not resolved on every path`
		return errNo
	}
	if err := work(); err != nil {
		return err // no Failure here: the claim leaks
	}
	b.Success()
	return nil
}

// discarded throws away the Allow result, losing any claimed slot.
func discarded(b *Breaker) {
	b.Allow() // want `result of b.Allow\(\) discarded`
}

// leakOnPanic resolves on the normal path but not the panic path.
func leakOnPanic(b *Breaker, v int) {
	if b.Allow() { // want `slot may be claimed here but not resolved on every path`
		if v < 0 {
			panic("negative")
		}
		b.Success()
	}
}

// doubleResolve resolves the same slot twice on the same path.
func doubleResolve(b *Breaker) {
	if b.Allow() {
		b.Success()
		b.Cancel() // want `slot already resolved on every path reaching this call`
	}
}

// wrongPeer resolves a different peer's slot than it claimed.
func wrongPeer(h *Health, a, b string) {
	if h.Allow(a) { // want `slot may be claimed here but not resolved on every path`
		h.ReportSuccess(b)
	}
}

// boundLeak binds the result but never resolves the claim.
func boundLeak(b *Breaker, work func()) {
	ok := b.Allow() // want `slot may be claimed here but not resolved on every path`
	if ok {
		work()
	}
}
