// Package par provides the minimal parallel-for primitive behind the
// whole-Internet sweeps: ReachabilityAll's origin blocks, and the leak
// driver bgpsim.RunLeakJobs, whose items are either whole leak jobs (one
// per worker at a time) or one job's 64-leaker blocks (LeakSweep.TrialsN).
//
// Work items are claimed through an atomic cursor rather than fed over a
// channel. The feeder-channel shape has a latent deadlock: when every
// worker exits early on an error, an unbuffered `work <- i` send blocks
// forever with nobody left to receive. With a cursor there is no feeder to
// strand — workers pull indexes until the range is exhausted or a failure
// is flagged, and the first error cancels the remaining items.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) across up to `workers` goroutines.
// worker(w) is invoked once per goroutine (on that goroutine) to build its
// item function, giving callers a place to allocate per-worker state such
// as a simulator or scratch mask. The first error stops the sweep: no new
// items are claimed, in-flight items finish, and that error is returned.
// Items may run in any order; with workers <= 1 they run in order on the
// calling goroutine.
func For(workers, n int, worker func(w int) func(i int) error) error {
	return ForCtx(context.Background(), workers, n, worker)
}

// ForCtx is For with cancellation: when ctx is done, no new items are
// claimed, in-flight items finish, and ctx.Err() is returned (unless an
// item error occurred first — item errors take precedence). Item functions
// that want finer-grained cancellation must observe ctx themselves.
func ForCtx(ctx context.Context, workers, n int, worker func(w int) func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn := worker(0)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn := worker(w)
			for !failed.Load() {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
