package sim

import (
	"context"
	"runtime"
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
