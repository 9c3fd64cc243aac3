package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"joinopt/internal/cost"
	"joinopt/internal/fingerprint"
	"joinopt/internal/greedy"
	"joinopt/internal/persist"
	"joinopt/internal/plancache"
)

// prebuilt returns a directory holding the pristine durable cache of w —
// one greedy-planned entry per pool shape, written through persist.Open
// and Store.Snapshot exactly as a daemon would — and the cost of every
// entry by fingerprint, as read back through persist. The pool does not
// depend on the run seed, so the directory is built once per checkout.
func prebuilt(w *workload, p *pool, workdir string) (string, map[fingerprint.Fingerprint]float64, error) {
	dir := filepath.Join(workdir, "prebuilt-"+w.Name)
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		if err := buildDurable(p, dir); err != nil {
			return "", nil, err
		}
	}
	// persist.Open compacts in place, so read a copy, never the original.
	probe := filepath.Join(workdir, "prebuilt-probe")
	if err := copyDir(dir, probe); err != nil {
		return "", nil, err
	}
	defer os.RemoveAll(probe)
	store, entries, _, err := persist.Open(persist.Options{Dir: probe})
	if err != nil {
		return "", nil, fmt.Errorf("read back %s: %w", dir, err)
	}
	if err := store.Close(); err != nil {
		return "", nil, err
	}
	want := make(map[fingerprint.Fingerprint]float64, len(entries))
	for _, e := range entries {
		want[e.Fingerprint] = e.Plan.TotalCost
	}
	if len(want) != w.Pool {
		return "", nil, fmt.Errorf("%s holds %d entries, want %d (delete it to rebuild)", dir, len(want), w.Pool)
	}
	return dir, want, nil
}

func buildDurable(p *pool, dir string) error {
	entries := make([]*plancache.Entry, len(p.end))
	errs := make([]error, len(p.end))
	parallel(len(p.end), func(i int) {
		q := p.query(int32(i))
		fp, order := fingerprint.Canonical(q)
		g, err := greedy.New(fingerprint.Relabel(q, order), cost.NewMemoryModel())
		if err != nil {
			errs[i] = fmt.Errorf("greedy plan of shape %d: %w", i, err)
			return
		}
		res := g.Plan()
		entries[i] = &plancache.Entry{Fingerprint: fp, Plan: res.ToPlan(), BudgetUsed: res.Work, Tier: plancache.TierGreedy}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	store, _, _, err := persist.Open(persist.Options{Dir: tmp})
	if err != nil {
		return fmt.Errorf("create durable cache: %w", err)
	}
	if err := store.Snapshot(entries); err != nil {
		store.Close()
		return fmt.Errorf("write durable cache: %w", err)
	}
	if err := store.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// copyDir replaces dst with a copy of the regular files in src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
