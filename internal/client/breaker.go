package client

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerConfig tunes the half-open circuit breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive retryable failures open the
	// circuit (default 5; < 0 disables the breaker entirely).
	Threshold int
	// Cooldown is how long the circuit stays open before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
}

func (c *BreakerConfig) fill() {
	if c.Threshold == 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
}

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is a half-open circuit breaker over consecutive failures:
//
//   - closed: requests flow; Threshold consecutive retryable failures
//     trip it open.
//   - open: requests fail fast with ErrCircuitOpen until Cooldown has
//     elapsed, at which point exactly one probe is admitted
//     (half-open).
//   - half-open: the probe's success closes the circuit; its failure
//     reopens it for another Cooldown. Non-probe requests fail fast
//     while the probe is in flight.
//
// The clock is injected (Config.Now) so tests drive the state machine
// deterministically.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time

	// transitions counts state changes (closed→open, open→half-open,
	// half-open→closed, half-open→open): the operational "how often is
	// this peer flapping" number, exported through telemetry.
	transitions atomic.Uint64

	mu            sync.Mutex
	state         breakerState
	failures      int
	openedAt      time.Time
	probeInFlight bool
}

func newBreaker(cfg BreakerConfig, now func() time.Time) *breaker {
	cfg.fill()
	return &breaker{cfg: cfg, now: now}
}

// allow reports whether a request may proceed. When it returns true in
// the half-open state, the caller holds the single probe slot and must
// report success or failure.
func (b *breaker) allow() bool {
	if b.cfg.Threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
			b.state = breakerHalfOpen
			b.transitions.Add(1)
			b.probeInFlight = true
			return true
		}
		return false
	default: // half-open
		if b.probeInFlight {
			return false
		}
		b.probeInFlight = true
		return true
	}
}

// success records a request that completed usefully (2xx, or a 4xx
// that proves the server is alive and judging requests).
func (b *breaker) success() {
	if b.cfg.Threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		b.transitions.Add(1)
	}
	b.state = breakerClosed
	b.failures = 0
	b.probeInFlight = false
}

// failure records a retryable failure (transport error, 5xx, timeout).
func (b *breaker) failure() {
	if b.cfg.Threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: reopen for another cooldown.
		b.state = breakerOpen
		b.transitions.Add(1)
		b.openedAt = b.now()
		b.probeInFlight = false
	case breakerClosed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.state = breakerOpen
			b.transitions.Add(1)
			b.openedAt = b.now()
		}
	}
}

// cancelSlot releases a slot claimed by allow() without judging the
// peer: the request was abandoned (its caller's context died, which is
// not a verdict on the peer's health). In the closed state
// this is a no-op; in half-open it frees the probe slot so the next
// request can probe instead of parking the breaker half-open forever.
func (b *breaker) cancelSlot() {
	if b.cfg.Threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probeInFlight = false
}

// currentState snapshots the state (status/debugging).
func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// ---------------------------------------------------------------------

// Breaker is the exported half-open circuit breaker: the same state
// machine the Client runs per daemon, reusable as a standalone
// component (the cluster router keeps one per peer in its routing
// state, the rebalancer one per push destination).
//
// Contract: every Allow() == true must be followed by exactly one
// Success(), Failure() or Cancel() — in the half-open state, Allow
// grants the single probe slot, and a caller that drops the slot on
// the floor parks the breaker half-open forever.
type Breaker struct{ b *breaker }

// NewBreaker builds a standalone breaker. now is the clock (nil means
// time.Now; tests inject a fake clock to drive cooldowns).
func NewBreaker(cfg BreakerConfig, now func() time.Time) *Breaker {
	if now == nil {
		//ljqlint:allow detrand -- wall-clock breaker cooldown, outside any seeded optimizer path
		now = time.Now
	}
	return &Breaker{b: newBreaker(cfg, now)}
}

// Allow reports whether a request may proceed (and in half-open state
// claims the probe slot — see the type contract).
func (b *Breaker) Allow() bool { return b.b.allow() }

// Success records a useful completion.
func (b *Breaker) Success() { b.b.success() }

// Failure records a retryable failure.
func (b *Breaker) Failure() { b.b.failure() }

// Cancel releases an Allow slot without recording a verdict: the
// request was abandoned before completing (e.g. its caller's context
// died), so its fate says nothing about the peer.
func (b *Breaker) Cancel() { b.b.cancelSlot() }

// State names the current state ("closed", "open", "half-open").
func (b *Breaker) State() string { return b.b.currentState().String() }

// Transitions returns how many state changes the breaker has made.
func (b *Breaker) Transitions() uint64 { return b.b.transitions.Load() }
