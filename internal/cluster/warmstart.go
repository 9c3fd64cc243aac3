package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"joinopt/internal/persist"
	"joinopt/internal/plancache"
)

// Warm start: a joining or recovering peer bulk-loads another peer's
// plan cache over GET /snapshot before flipping its own /readyz, so a
// restart rejoins the cluster warm instead of triggering a cold
// re-optimization storm on its ring arc.
//
// The fetch deliberately does NOT go through client.Client — the
// resilient client caps response bodies at 4 MiB (right for plan
// responses, wrong for a bulk snapshot) and its retry machinery would
// re-pull the whole payload from a donor that just proved flaky.
// Instead each donor gets one plain, size-capped, deadline-bounded GET;
// any defect — torn stream, short read against Content-Length, CRC or
// schema refusal from the strict decoder — moves on to the next donor.
// A peer with no usable donor starts cold, which is degraded but
// correct: warm-start failure is never fatal.

// ErrNoDonor reports that every configured donor failed to supply a
// decodable snapshot; the per-donor reasons are in the result.
var ErrNoDonor = errors.New("cluster: no donor could supply a snapshot")

// WarmStartConfig tunes a warm start.
type WarmStartConfig struct {
	// Donors are candidate snapshot sources (base URLs), tried in
	// order until one yields a strict-decodable snapshot.
	Donors []string
	// Transport performs the fetches (default http.DefaultTransport;
	// the chaos harness injects its cluster transport).
	Transport http.RoundTripper
	// MaxBytes caps one snapshot payload (default 64 MiB): a confused
	// or malicious donor must not balloon the joiner's memory.
	MaxBytes int64
	// PerDonorTimeout bounds one donor's fetch end to end (default
	// 30s); the caller's ctx still bounds the whole warm start.
	PerDonorTimeout time.Duration
}

func (c *WarmStartConfig) fill() {
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	if c.PerDonorTimeout <= 0 {
		c.PerDonorTimeout = 30 * time.Second
	}
}

// DonorAttempt records one failed donor.
type DonorAttempt struct {
	Donor string `json:"donor"`
	Err   string `json:"err"`
}

// WarmStartResult describes a warm start: which donor won, how much it
// shipped, and what each earlier donor did wrong.
type WarmStartResult struct {
	// Donor is the winning snapshot source ("" if none).
	Donor string `json:"donor"`
	// Entries is how many shipped entries the cache accepted.
	Entries int `json:"entries"`
	// Bytes is the winning payload size.
	Bytes int64 `json:"bytes"`
	// Attempts lists the donors that failed before the winner.
	Attempts []DonorAttempt `json:"attempts,omitempty"`
}

// WarmStart fetches a snapshot from the first usable donor and warms
// cache with it (Warm: no admission hooks fire, so warmed entries are
// not re-journaled as fresh admissions). On total failure the partial
// result (with every donor's error) comes back alongside ErrNoDonor.
func WarmStart(ctx context.Context, cache *plancache.Cache, cfg WarmStartConfig) (*WarmStartResult, error) {
	cfg.fill()
	res := &WarmStartResult{}
	for _, donor := range cfg.Donors {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		entries, n, err := fetchSnapshot(ctx, donor, cfg)
		if err != nil {
			res.Attempts = append(res.Attempts, DonorAttempt{Donor: donor, Err: err.Error()})
			continue
		}
		res.Donor = donor
		res.Entries = cache.WarmAll(entries)
		res.Bytes = n
		return res, nil
	}
	return res, fmt.Errorf("%w (%d tried)", ErrNoDonor, len(cfg.Donors))
}

// fetchSnapshot pulls and strictly decodes one donor's snapshot.
func fetchSnapshot(ctx context.Context, donor string, cfg WarmStartConfig) ([]*plancache.Entry, int64, error) {
	fctx, cancel := context.WithTimeout(ctx, cfg.PerDonorTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, donor+"/snapshot", nil)
	if err != nil {
		return nil, 0, fmt.Errorf("build request: %w", err)
	}
	resp, err := cfg.Transport.RoundTrip(req)
	if err != nil {
		return nil, 0, fmt.Errorf("fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("donor answered %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, cfg.MaxBytes+1))
	if err != nil {
		// The donor died mid-stream; whatever arrived is a torn
		// prefix the strict decoder would refuse anyway.
		return nil, 0, fmt.Errorf("torn transfer: %w", err)
	}
	if int64(len(data)) > cfg.MaxBytes {
		return nil, 0, fmt.Errorf("snapshot exceeds %d-byte cap", cfg.MaxBytes)
	}
	if cl := resp.ContentLength; cl >= 0 && cl != int64(len(data)) {
		return nil, 0, fmt.Errorf("short transfer: got %d of %d bytes", len(data), cl)
	}
	entries, err := persist.DecodeSnapshotStrict(data)
	if err != nil {
		return nil, 0, fmt.Errorf("decode: %w", err)
	}
	return entries, int64(len(data)), nil
}
