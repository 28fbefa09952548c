package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// windowWorkersKey carries the concurrent-window bound on a context.
type windowWorkersKey struct{}

// WithWindowWorkers returns a context that bounds the detailed windows
// RunSampledContext and RunMultiSampledContext simulate concurrently:
// 0 selects GOMAXPROCS, 1 runs them one after the other. Window merges
// always run in window-index order, so the bound moves host time only.
func WithWindowWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, windowWorkersKey{}, n)
}

// windowWorkers resolves the concurrent-window bound for a sampled run:
// the context's setting, defaulted to GOMAXPROCS and clamped to the
// number of points.
func windowWorkers(ctx context.Context, points int) int {
	workers, _ := ctx.Value(windowWorkersKey{}).(int)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > points {
		workers = points
	}
	return workers
}

// fanOut runs fn(i) for every i below n on the sampled worker pool — a
// run's detailed windows, each restoring from the read-only checkpoint set
// into its own emulator, hierarchy and predictors. It returns ctx's error
// if ctx was cancelled (workers stop taking windows), else fn's
// lowest-index error. Callers fill a slice by index and merge it in index
// order afterwards, so the aggregate (including its float folds) is
// identical to a sequential execution's whatever the completion order.
func fanOut(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := windowWorkers(ctx, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
