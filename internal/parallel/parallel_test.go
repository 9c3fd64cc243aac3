package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, c := range []struct{ n, want int }{
		{0, 1},
		{MinPerWorker - 1, 1},
		{2*MinPerWorker - 1, 1},
		{2 * MinPerWorker, 2},
		{100 * MinPerWorker, 3},
	} {
		if got := Workers(c.n); got != c.want {
			t.Errorf("Workers(%d) at GOMAXPROCS 3 = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestDoRunsEveryWorkerOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		var calls [5]atomic.Int32
		Do(workers, func(w int) { calls[w].Add(1) })
		for w := range calls {
			want := int32(0)
			if w < workers {
				want = 1
			}
			if got := calls[w].Load(); got != want {
				t.Fatalf("workers=%d: worker %d ran %d times", workers, w, got)
			}
		}
	}
}

// TestDoReraisesPanicAfterEveryWorker pins the barrier: a worker's
// panic reaches the caller, and only once every other worker is done.
func TestDoReraisesPanicAfterEveryWorker(t *testing.T) {
	var finished atomic.Int32
	defer func() {
		r := recover()
		if r != "worker 1" {
			t.Fatalf("recovered %v, want the lowest panicking worker's value", r)
		}
		if got := finished.Load(); got != 2 {
			t.Fatalf("%d non-panicking workers finished before the re-raise, want 2", got)
		}
	}()
	Do(4, func(w int) {
		if w%2 == 1 {
			panic("worker " + string(rune('0'+w)))
		}
		finished.Add(1)
	})
	t.Fatal("Do returned after a worker panicked")
}
