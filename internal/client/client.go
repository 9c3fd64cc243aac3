// Package client is the hardened Go client for the ljqd optimizer
// daemon (internal/serve): the server amortizes the paper's t·N²
// search across isomorphic queries, and this client makes reaching it
// survive the failures a production network actually serves — dropped
// connections, slow replies, 503 load shedding, and crashed daemons
// mid-restart.
//
// Resilience features, all deterministic under test (the clock, the
// sleeper and the jitter stream are injectable, and the fault harness
// provides a scripted http.RoundTripper):
//
//   - per-attempt timeouts: one slow attempt cannot eat the caller's
//     whole deadline;
//   - capped exponential backoff with seeded jitter between attempts;
//   - Retry-After-aware 503 handling: the server's load shedder says
//     when capacity should exist again (serve.retryAfterSeconds now
//     rounds up, so the hint is never a serialized zero), and the
//     client waits at least that long;
//   - a half-open circuit breaker: consecutive failures trip it, a
//     cooled-down probe closes it, and while open the client fails
//     fast with ErrCircuitOpen instead of queueing doomed work.
//
// The client talks to one daemon. Failing over across daemons is the
// cluster router's job (internal/cluster walks ring successors), and
// so is the codec on the internal peer hop: the router always sends
// the binary wire protocol, with its canonical hint, through
// OptimizeCanonical, while JSON remains the public edge codec for
// ljqopt and other external callers.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/qfile"
	"joinopt/internal/serve"
	"joinopt/internal/telemetry"
	"joinopt/internal/wire"
)

// Errors surfaced by the client.
var (
	// ErrCircuitOpen reports that the circuit breaker is open: the
	// daemon has failed repeatedly and the cooldown has not elapsed.
	ErrCircuitOpen = errors.New("client: circuit breaker open")
	// ErrExhausted reports that every attempt failed retryably; it
	// wraps the last attempt's error.
	ErrExhausted = errors.New("client: attempts exhausted")
)

// APIError is a non-retryable HTTP failure (4xx other than 429): the
// daemon judged the request itself defective.
type APIError struct {
	StatusCode int
	Body       string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.StatusCode, strings.TrimSpace(e.Body))
}

// ShedError is a load-shedding answer — 503 or 429 — with its
// Retry-After hint consumed. It is retryable: the daemon is alive and
// refusing work, the opposite of dead. Under the default config the
// client retries it in-line (sleeping at least RetryAfter); with
// Config.ShedFailFast it surfaces immediately so a caller with its own
// failover (the cluster router) can try another peer instead of
// blocking on this one's backlog.
type ShedError struct {
	StatusCode int
	RetryAfter time.Duration // server's hint, 0 if absent/unparseable
	Body       string
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("client: server unavailable (%d): %s", e.StatusCode, strings.TrimSpace(e.Body))
}

// Config tunes a Client. The zero value (plus BaseURL) selects
// production-ish defaults.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Transport performs the HTTP round trips (default
	// http.DefaultTransport; tests inject faultinject.FlakyTransport).
	Transport http.RoundTripper
	// MaxAttempts bounds retries per call (default 4).
	MaxAttempts int
	// PerAttemptTimeout bounds one HTTP attempt (default 10s). The
	// caller's ctx still bounds the whole call.
	PerAttemptTimeout time.Duration
	// BaseBackoff / MaxBackoff shape the exponential backoff between
	// attempts (defaults 100ms / 5s). The k-th delay is drawn from
	// [b/2, b) with b = min(BaseBackoff·2^k, MaxBackoff).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the backoff jitter stream (default 1): two
	// clients built with the same seed and failure sequence back off
	// identically.
	JitterSeed int64
	// RetryAfterCap bounds how long a server Retry-After hint is
	// honored (default 30s): a confused server must not park the
	// client for an hour.
	RetryAfterCap time.Duration
	// ShedFailFast makes a load-shedding answer (503/429 — a *ShedError)
	// return immediately instead of being retried in-line with a
	// Retry-After sleep. For callers that own a failover ladder (the
	// cluster router): the right response to one peer shedding is to ask
	// a different peer NOW, not to camp on the shedding peer's queue.
	// The breaker records shed answers as successes — a shedding daemon
	// is alive, and opening its circuit would misread load as death.
	ShedFailFast bool
	// Wire selects the binary wire protocol (internal/wire) for
	// Optimize: the query ships as a length-prefixed binary frame and
	// the response is requested in the same codec via Accept. There is
	// no JSON fallback: every ljqd speaks both codecs, so a 4xx on a
	// binary request is the daemon's verdict on the query.
	// OptimizeCanonical, the cluster router's peer hop, always speaks
	// it.
	Wire bool
	// Breaker tunes the circuit breaker.
	Breaker BreakerConfig

	// Test hooks. Production code leaves them nil.
	//
	// Sleep waits between attempts (default: ctx-aware timer).
	Sleep func(ctx context.Context, d time.Duration) error
	// Now is the breaker's clock (default time.Now).
	Now func() time.Time
}

func (c *Config) fill() error {
	if c.BaseURL == "" {
		return errors.New("client: BaseURL required")
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.PerAttemptTimeout <= 0 {
		c.PerAttemptTimeout = 10 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 30 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	if c.Now == nil {
		//ljqlint:allow detrand -- wall-clock breaker cooldown in the network client, outside any seeded path
		c.Now = time.Now
	}
	return nil
}

// sleepCtx is the production sleeper: a ctx-aware timer.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Client is a hardened ljqd client. Safe for concurrent use.
type Client struct {
	cfg     Config
	breaker *breaker

	// Resilience counters, exported via Stats and RegisterMetrics: how
	// much work the failure-handling machinery is actually doing.
	retries atomic.Uint64 // extra attempts beyond the first, per call

	mu  sync.Mutex
	rng *rand.Rand
}

// Stats is a snapshot of the client's resilience counters.
type Stats struct {
	Retries            uint64 `json:"retries"`
	BreakerTransitions uint64 `json:"breakerTransitions"`
	BreakerState       string `json:"breakerState"`
}

// New builds a client.
func New(cfg Config) (*Client, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Client{
		cfg:     cfg,
		breaker: newBreaker(cfg.Breaker, cfg.Now),
		rng:     rand.New(rand.NewSource(cfg.JitterSeed)),
	}, nil
}

// BreakerState names the breaker's current state ("closed", "open",
// "half-open") for status surfaces.
func (c *Client) BreakerState() string { return c.breaker.currentState().String() }

// Stats snapshots the resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Retries:            c.retries.Load(),
		BreakerTransitions: c.breaker.transitions.Load(),
		BreakerState:       c.BreakerState(),
	}
}

// RegisterMetrics exports the resilience counters into reg under the
// given metric-name prefix, optionally tagged with a literal label
// suffix (pass labels like `{peer="http://host:8080"}`, or "" for
// none). The cluster router registers one client per peer this way, so
// /metrics breaks retries and breaker churn down by peer.
func (c *Client) RegisterMetrics(reg *telemetry.Registry, prefix, labels string) {
	if reg == nil {
		return
	}
	reg.CounterFunc(prefix+"_retries_total"+labels, "Retry attempts beyond each call's first try.", c.retries.Load)
	reg.CounterFunc(prefix+"_breaker_transitions_total"+labels, "Circuit-breaker state transitions.", c.breaker.transitions.Load)
}

// Optimize sends q to POST /optimize with the full resilience stack
// and returns the decoded response. The codec is JSON unless
// Config.Wire selects the binary wire protocol.
func (c *Client) Optimize(ctx context.Context, q *catalog.Query) (*serve.OptimizeResponse, error) {
	if c.cfg.Wire {
		return c.optimize(ctx, wire.EncodeQuery(q), "/optimize", wire.ContentType, wire.ContentType)
	}
	body, err := qfile.Append(nil, q)
	if err != nil {
		return nil, fmt.Errorf("client: encode query: %w", err)
	}
	return c.optimize(ctx, body, "/optimize", "application/json", "")
}

// OptimizeCanonical is Optimize over the binary wire protocol with q's
// canonical fingerprint and order, as fingerprint.Canonical(q) returns
// them, framed ahead of the query: the daemon can then answer a cache
// hit without canonicalizing q itself. The cluster router sends every
// peer hop through it, whatever Config.Wire says.
func (c *Client) OptimizeCanonical(ctx context.Context, q *catalog.Query, fp fingerprint.Fingerprint, order []catalog.RelID) (*serve.OptimizeResponse, error) {
	return c.optimize(ctx, wire.EncodeCanonicalQuery(fp, order, q), "/optimize", wire.ContentType, wire.ContentType)
}

func (c *Client) optimize(ctx context.Context, body []byte, path, contentType, accept string) (*serve.OptimizeResponse, error) {
	data, err := c.call(ctx, http.MethodPost, path, contentType, accept, body)
	if err != nil {
		return nil, err
	}
	return decodeOptimizeResponse(data)
}

// decodeOptimizeResponse sniffs the codec by the frame magic rather
// than trusting headers: a daemon that ignored the Accept header (or a
// proxy that rewrote Content-Type) still decodes correctly.
func decodeOptimizeResponse(data []byte) (*serve.OptimizeResponse, error) {
	if wire.IsFrame(data) {
		wr, err := wire.DecodeResponse(data)
		if err != nil {
			return nil, fmt.Errorf("client: decode response: %w", err)
		}
		return &serve.OptimizeResponse{
			Fingerprint:   wr.Fingerprint,
			CacheHit:      wr.CacheHit,
			Coalesced:     wr.Coalesced,
			Degraded:      wr.Degraded,
			DegradeReason: wr.DegradeReason,
			BudgetUsed:    wr.BudgetUsed,
			TotalCost:     wr.TotalCost,
			Order:         wr.Order,
			Names:         wr.Names,
			Tier:          wr.Tier,
			Explain:       wr.Explain,
		}, nil
	}
	var resp serve.OptimizeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("client: decode response: %w", err)
	}
	return &resp, nil
}

// Status fetches GET /statusz (single attempt: operational probes
// should report the world as it is, not retry it into shape).
func (c *Client) Status(ctx context.Context) (*serve.StatusResponse, error) {
	out, err := c.once(ctx, http.MethodGet, "/statusz")
	if err != nil {
		return nil, err
	}
	var st serve.StatusResponse
	if err := json.Unmarshal(out, &st); err != nil {
		return nil, fmt.Errorf("client: decode statusz: %w", err)
	}
	return &st, nil
}

// Ready probes GET /readyz; nil means the daemon is accepting work
// (recovery finished, limiter not shedding). Single attempt.
func (c *Client) Ready(ctx context.Context) error {
	_, err := c.once(ctx, http.MethodGet, "/readyz")
	return err
}

// once performs a single unretried attempt (health/status probes).
func (c *Client) once(ctx context.Context, method, path string) ([]byte, error) {
	out := c.attempt(ctx, method, path, "", "", nil)
	if out.err != nil {
		return nil, out.err
	}
	return out.body, nil
}

// outcome classifies one attempt.
type outcome struct {
	body       []byte
	err        error // nil iff 2xx
	retryable  bool
	retryAfter time.Duration // server's 503 hint, 0 if none
}

// call runs the full retry/breaker loop for one logical request.
func (c *Client) call(ctx context.Context, method, path, contentType, accept string, body []byte) ([]byte, error) {
	var last outcome
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			c.retries.Add(1)
		}
		if !c.breaker.allow() {
			return nil, ErrCircuitOpen
		}
		out := c.attempt(ctx, method, path, contentType, accept, body)
		if out.err == nil {
			c.breaker.success()
			return out.body, nil
		}
		if c.cfg.ShedFailFast {
			var shed *ShedError
			if errors.As(out.err, &shed) {
				// The daemon answered — alive, just refusing work. Hand
				// the verdict to the caller's own failover immediately;
				// no in-line Retry-After sleep, no breaker strike.
				c.breaker.success()
				return nil, out.err
			}
		}
		if !out.retryable {
			// A 4xx proves the daemon is alive and judging requests:
			// that is breaker-success even though the call failed.
			var apiErr *APIError
			if errors.As(out.err, &apiErr) {
				c.breaker.success()
			} else {
				// Any other non-retryable failure is the caller's
				// doing — its context died mid-attempt or the request
				// could not be built. No verdict on the daemon, but
				// the claimed slot (possibly the half-open probe
				// slot) must be released: dropping it would park the
				// breaker half-open and fail every future call fast.
				c.breaker.cancelSlot()
			}
			return nil, out.err
		}
		c.breaker.failure()
		last = out
		if attempt == c.cfg.MaxAttempts-1 {
			break
		}
		delay := c.backoff(attempt)
		if ra := out.retryAfter; ra > delay {
			delay = ra
		}
		if err := c.cfg.Sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w after %d attempts: %w", ErrExhausted, c.cfg.MaxAttempts, last.err)
}

// backoff draws the k-th attempt's jittered delay from the seeded
// stream: uniform in [b/2, b), b = min(BaseBackoff·2^k, MaxBackoff).
func (c *Client) backoff(attempt int) time.Duration {
	b := c.cfg.BaseBackoff << uint(attempt)
	if b <= 0 || b > c.cfg.MaxBackoff {
		b = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	f := c.rng.Float64()
	c.mu.Unlock()
	return b/2 + time.Duration(f*float64(b/2))
}

// attempt performs one physical HTTP request under the per-attempt
// timeout and classifies the result.
func (c *Client) attempt(ctx context.Context, method, path, contentType, accept string, body []byte) outcome {
	actx, cancel := context.WithTimeout(ctx, c.cfg.PerAttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return outcome{err: fmt.Errorf("client: build request: %w", err), retryable: false}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.cfg.Transport.RoundTrip(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's context died, not just this attempt's.
			return outcome{err: ctx.Err(), retryable: false}
		}
		// Transport failure or per-attempt timeout: retryable.
		return outcome{err: fmt.Errorf("client: %w", err), retryable: true}
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if rerr != nil {
			return outcome{err: fmt.Errorf("client: read response: %w", rerr), retryable: true}
		}
		return outcome{body: data}
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		ra := c.parseRetryAfter(resp.Header.Get("Retry-After"))
		return outcome{
			err:        &ShedError{StatusCode: resp.StatusCode, RetryAfter: ra, Body: string(data)},
			retryable:  true,
			retryAfter: ra,
		}
	case resp.StatusCode >= 500:
		return outcome{err: fmt.Errorf("client: server returned %d: %s", resp.StatusCode, strings.TrimSpace(string(data))), retryable: true}
	default:
		return outcome{err: &APIError{StatusCode: resp.StatusCode, Body: string(data)}, retryable: false}
	}
}

// parseRetryAfter decodes an integer-seconds Retry-After header,
// capped by RetryAfterCap. Unparseable or absent values yield 0 (the
// backoff schedule alone decides the delay).
func (c *Client) parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > c.cfg.RetryAfterCap {
		d = c.cfg.RetryAfterCap
	}
	return d
}
