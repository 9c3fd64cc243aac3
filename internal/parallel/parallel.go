// Package parallel splits one bulk job — startup replay, cache warming —
// over the CPUs, behind the recover barrier the service layer requires
// of every goroutine.
package parallel

import (
	"runtime"
	"sync"
)

// MinPerWorker is the fewest items worth a worker of their own: below
// it, the goroutine start and the join cost more than the work they
// share.
const MinPerWorker = 4096

// Workers returns how many workers n items earn: one per MinPerWorker
// items, at most GOMAXPROCS, at least one.
func Workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/MinPerWorker))
}

// Do runs fn(0), …, fn(workers-1) and returns when all have returned.
// With fewer than two workers fn(0) runs on the calling goroutine.
// Otherwise each call runs on its own goroutine; a panic there is
// recovered and, once every worker has returned, re-raised on the
// caller (the lowest worker's panic if several panicked), so Do fails
// the way a sequential loop over the same work would.
func Do(workers int, fn func(w int)) {
	if workers < 2 {
		fn(0)
		return
	}
	panics := make([]any, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			fn(w)
		}(w)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}
