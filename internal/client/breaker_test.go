package client

import (
	"testing"
	"time"
)

// TestBreakerTripsProbesAndCloses drives two standalone breakers on one
// fake clock: consecutive failures trip one at the threshold while the
// other stays closed, the cooled-down breaker grants exactly one
// half-open probe slot, and the probe's success closes it.
func TestBreakerTripsProbesAndCloses(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg := BreakerConfig{Threshold: 2, Cooldown: 5 * time.Second}
	a, b := NewBreaker(cfg, clock.now), NewBreaker(cfg, clock.now)

	if !a.Allow() || !b.Allow() {
		t.Fatal("fresh breakers must admit requests")
	}
	a.Success()
	b.Success()

	// Two consecutive failures open a; b is unaffected.
	for i := 0; i < 2; i++ {
		if !a.Allow() {
			t.Fatalf("failure %d: closed breaker refused", i)
		}
		a.Failure()
	}
	if a.Allow() {
		t.Fatal("open breaker admitted a request")
	}
	if a.State() != "open" || b.State() != "closed" {
		t.Fatalf("states a=%s b=%s, want open and closed", a.State(), b.State())
	}
	if !b.Allow() {
		t.Fatal("a's failures closed b's circuit")
	}
	b.Success()

	// Cooldown elapses: exactly one probe slot.
	clock.advance(5 * time.Second)
	if !a.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if a.State() != "half-open" {
		t.Fatalf("state %s while probing, want half-open", a.State())
	}
	if a.Allow() {
		t.Fatal("second request admitted while the probe is in flight")
	}
	a.Success()
	if a.State() != "closed" {
		t.Fatalf("probe success left the breaker %s", a.State())
	}
	if b.Transitions() != 0 {
		t.Fatalf("b made %d transitions, want 0", b.Transitions())
	}
}

// TestBreakerCancelReleasesProbeSlot: abandoning a claimed half-open
// slot with Cancel records no verdict and frees the probe for the next
// request instead of parking the breaker half-open forever.
func TestBreakerCancelReleasesProbeSlot(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second}, clock.now)
	b.Failure() // opens (threshold 1)
	clock.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Cancel() // abandoned request: no verdict
	if b.State() != "half-open" {
		t.Fatalf("cancel changed state to %s", b.State())
	}
	if !b.Allow() {
		t.Fatal("released probe slot not reusable")
	}
	b.Success()
	if b.State() != "closed" {
		t.Fatalf("state %s after probe success", b.State())
	}
}
