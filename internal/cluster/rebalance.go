package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/client"
	"joinopt/internal/persist"
	"joinopt/internal/plancache"
	"joinopt/internal/telemetry"
)

// Rebalancing: when a membership epoch moves an arc off this node —
// a new peer joined, a weight bump shifted ownership, or this node is
// leaving — the node that currently holds the arc's plans pushes them
// to the new owner over POST /snapshot/arc, then drops its no-longer-
// owned entries. A joining peer therefore serves its first request for
// a moved arc warm, without depending on its one startup snapshot pull.
//
// Safety rules, in priority order:
//
//  1. Never lose an arc: an entry is evicted only after its new owner
//     acknowledged the push. A failed push (dead peer, open breaker,
//     overflowed queue) keeps the entries local — stale-but-present
//     beats gone, and the next epoch diff retries them.
//  2. Never wedge on a dead destination: pushes are breaker-guarded
//     (per destination, reusing internal/client's breaker) with a
//     bounded retry budget and a bounded per-epoch entry queue.
//  3. Never block serving: Apply runs on the membership watcher's
//     goroutine, not on any request path.

// Push policy: per destination and epoch, at most pushMaxAttempts
// tries pushRetryBackoff apart, each bounded end to end by
// pushTimeout; one epoch transition queues at most pushQueueCap
// entries — overflow is dropped, counted and kept local, never
// silently lost. The per-destination push breakers take
// client.BreakerConfig's defaults on the wall clock.
const (
	pushMaxAttempts  = 3
	pushRetryBackoff = 250 * time.Millisecond
	pushTimeout      = 30 * time.Second
	pushQueueCap     = 8192
)

// RebalanceConfig tunes a Rebalancer.
type RebalanceConfig struct {
	// Self is this node's own membership URL (normalized, no trailing
	// slash) — the identity ownership is judged against. Required.
	Self string
	// Cache is the local plan cache pushes are drawn from and
	// evictions applied to. Required.
	Cache *plancache.Cache
	// Transport performs the pushes (default http.DefaultTransport;
	// the chaos harness injects its cluster transport). Pushes
	// deliberately do not go through client.Client for the same reason
	// warm start does not: its body cap and retry machinery fit plan
	// responses, not bulk snapshot payloads.
	Transport http.RoundTripper
	// Sleep pauses between retries (nil = ctx-aware real timer; tests
	// inject a no-op for determinism).
	Sleep func(ctx context.Context, d time.Duration) error
	// Logf, when set, receives one line per push failure and overflow
	// (typically log.Printf).
	Logf func(format string, args ...any)
}

func (c *RebalanceConfig) fill() error {
	if c.Self == "" {
		return errors.New("cluster: rebalancer needs Self")
	}
	if c.Cache == nil {
		return errors.New("cluster: rebalancer needs Cache")
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// Rebalancer applies membership epochs on a serving node: under each
// newly applied epoch it pushes every held-but-no-longer-owned arc to
// its new owner and evicts what was acknowledged. One Rebalancer per
// node; Apply calls must be sequential (the membership watcher's loop
// already is).
type Rebalancer struct {
	cfg RebalanceConfig

	mu       sync.Mutex
	cur      *Epoch
	breakers map[string]*client.Breaker

	rebalances  atomic.Uint64 // epoch transitions applied
	pushes      atomic.Uint64 // successful arc pushes (one per destination per epoch)
	pushEntries atomic.Uint64 // entries shipped in successful pushes
	pushBytes   atomic.Uint64 // payload bytes shipped in successful pushes
	pushFails   atomic.Uint64 // destinations whose push failed this-epoch
	dropped     atomic.Uint64 // entries dropped by the bounded push queue
	evicted     atomic.Uint64 // entries evicted after ownership moved
}

// NewRebalancer builds a rebalancer for one serving node.
func NewRebalancer(cfg RebalanceConfig) (*Rebalancer, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Rebalancer{cfg: cfg, breakers: make(map[string]*client.Breaker)}, nil
}

// RegisterMetrics exposes the rebalancer's counters on reg.
func (rb *Rebalancer) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("ljq_rebalance_total", "Membership epoch transitions applied by the rebalancer.", rb.rebalances.Load)
	reg.CounterFunc("ljq_arc_push_sent_total", "Successful arc pushes to new owners.", rb.pushes.Load)
	reg.CounterFunc("ljq_arc_push_sent_entries_total", "Plan-cache entries shipped in successful arc pushes.", rb.pushEntries.Load)
	reg.CounterFunc("ljq_arc_push_sent_bytes_total", "Payload bytes shipped in successful arc pushes.", rb.pushBytes.Load)
	reg.CounterFunc("ljq_arc_push_failed_total", "Arc pushes abandoned after retries or an open breaker.", rb.pushFails.Load)
	reg.CounterFunc("ljq_arc_push_dropped_entries_total", "Entries the bounded push queue refused to enqueue.", rb.dropped.Load)
	reg.CounterFunc("ljq_rebalance_evicted_total", "Entries evicted because an epoch moved their arc away.", rb.evicted.Load)
}

// RebalanceResult describes one epoch application.
type RebalanceResult struct {
	// Epoch is the applied sequence number.
	Epoch uint64 `json:"epoch"`
	// Pushed maps destination → entries acknowledged by it.
	Pushed map[string]int `json:"pushed,omitempty"`
	// Failed lists destinations whose push was abandoned.
	Failed []string `json:"failed,omitempty"`
	// Evicted is how many no-longer-owned entries were dropped.
	Evicted int `json:"evicted"`
	// Dropped is how many entries the bounded queue refused.
	Dropped int `json:"dropped"`
}

// Epoch returns the epoch the rebalancer last applied (nil before the
// first Apply).
func (rb *Rebalancer) Epoch() *Epoch {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.cur
}

// Apply transitions the node to epoch e: push moved arcs, then evict
// what was acknowledged. The first Apply adopts e without a diff
// (bootstrap — there is no prior ownership to hand off). Non-monotonic
// epochs are ignored. Apply is synchronous; run it on the membership
// watcher's goroutine.
func (rb *Rebalancer) Apply(ctx context.Context, e *Epoch) (*RebalanceResult, error) {
	if e == nil {
		return nil, errors.New("cluster: nil epoch")
	}
	// Claim the transition under the lock, then ship outside it: the
	// pushes are network I/O and must not hold rb.mu. Claiming first is
	// safe because a failed push keeps its entries local and they stay
	// held-but-not-owned, so the next epoch retries them regardless of
	// which epoch is current.
	rb.mu.Lock()
	prev := rb.cur
	if prev != nil && e.Seq <= prev.Seq {
		rb.mu.Unlock()
		return &RebalanceResult{Epoch: prev.Seq}, nil
	}
	rb.cur = e
	rb.mu.Unlock()
	res := &RebalanceResult{Epoch: e.Seq}
	if prev != nil {
		rb.ship(ctx, e, res)
	}
	rb.rebalances.Add(1)
	return res, nil
}

// ship does the actual transition work: group the held-but-not-owned
// entries by their owner under the new epoch, push each group, evict
// the acknowledged ones. Ownership is judged against the NEW epoch
// alone (not a prev-vs-next diff): an entry whose push failed on an
// earlier transition is still held-but-not-owned on the next one, so
// it is retried instead of orphaned. Runs without rb.mu (the pushes
// block on the network); Apply calls are sequential by contract.
func (rb *Rebalancer) ship(ctx context.Context, next *Epoch, res *RebalanceResult) {
	self := rb.cfg.Self
	// Dump is fingerprint-sorted, so groups, push order and the
	// trajectory they produce are deterministic for a given cache
	// state.
	moved := make(map[string][]*plancache.Entry)
	queued := 0
	for _, ent := range rb.cfg.Cache.Dump() {
		dest := next.ring.Primary(ent.Fingerprint)
		if dest == self {
			continue // ours under the new epoch
		}
		if queued >= pushQueueCap {
			res.Dropped++
			rb.dropped.Add(1)
			continue
		}
		moved[dest] = append(moved[dest], ent)
		queued++
	}
	if res.Dropped > 0 {
		rb.logf("rebalance epoch %d: push queue full, kept %d entries local", next.Seq, res.Dropped)
	}
	if len(moved) == 0 {
		return
	}
	dests := make([]string, 0, len(moved))
	//ljqlint:allow detrand -- keys are sorted immediately below
	for d := range moved {
		dests = append(dests, d)
	}
	sort.Strings(dests)

	acked := make(map[plancache.Key]bool, queued)
	for _, dest := range dests {
		n, err := rb.pushArc(ctx, dest, moved[dest])
		if err != nil {
			rb.pushFails.Add(1)
			res.Failed = append(res.Failed, dest)
			rb.logf("rebalance epoch %d: push to %s failed, keeping %d entries local: %v", next.Seq, dest, len(moved[dest]), err)
			continue
		}
		for _, ent := range moved[dest] {
			acked[ent.Fingerprint] = true
		}
		if res.Pushed == nil {
			res.Pushed = make(map[string]int, len(dests))
		}
		res.Pushed[dest] = n
	}

	// Evict exactly the entries a new owner acknowledged; the rest —
	// failed pushes and queue overflow — stay (rule 1: stale beats
	// gone). EvictWhere itself skips entries mid-singleflight.
	res.Evicted = rb.cfg.Cache.EvictWhere(func(k plancache.Key) bool { return acked[k] })
	rb.evicted.Add(uint64(res.Evicted))
}

// pushArc ships entries to dest's POST /snapshot/arc, breaker-guarded
// with a bounded retry budget. Returns how many entries dest reported
// warming.
func (rb *Rebalancer) pushArc(ctx context.Context, dest string, entries []*plancache.Entry) (int, error) {
	rb.mu.Lock()
	br := rb.breakers[dest]
	if br == nil {
		br = client.NewBreaker(client.BreakerConfig{}, nil)
		rb.breakers[dest] = br
	}
	rb.mu.Unlock()
	payload := persist.EncodeSnapshot(entries)
	var lastErr error
	for attempt := 0; attempt < pushMaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if attempt > 0 {
			if err := rb.cfg.Sleep(ctx, pushRetryBackoff); err != nil {
				return 0, err
			}
		}
		if !br.Allow() {
			if lastErr == nil {
				lastErr = errors.New("push breaker open")
			}
			return 0, lastErr
		}
		if err := rb.postOnce(ctx, dest, payload); err != nil {
			br.Failure()
			lastErr = err
			continue
		}
		br.Success()
		rb.pushes.Add(1)
		rb.pushEntries.Add(uint64(len(entries)))
		rb.pushBytes.Add(uint64(len(payload)))
		return len(entries), nil
	}
	return 0, fmt.Errorf("after %d attempts: %w", pushMaxAttempts, lastErr)
}

// postOnce performs one POST /snapshot/arc round trip.
func (rb *Rebalancer) postOnce(ctx context.Context, dest string, payload []byte) error {
	pctx, cancel := context.WithTimeout(ctx, pushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, dest+"/snapshot/arc", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.ContentLength = int64(len(payload))
	resp, err := rb.cfg.Transport.RoundTrip(req)
	if err != nil {
		return fmt.Errorf("push: %w", err)
	}
	defer resp.Body.Close()
	// Drain so the transport can reuse the connection; the body is a
	// small JSON ack and the status code alone decides the outcome.
	if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)); err != nil {
		return fmt.Errorf("torn ack: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("destination answered %d", resp.StatusCode)
	}
	return nil
}

// logf logs through the configured sink, if any.
func (rb *Rebalancer) logf(format string, args ...any) {
	if rb.cfg.Logf != nil {
		rb.cfg.Logf(format, args...)
	}
}
