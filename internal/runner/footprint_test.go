package runner

import (
	"context"
	"runtime"
	"testing"

	"crisp/internal/sim"
)

// TestMemoHoldsNoMachine pins what each distinct spec costs a long-lived
// runner (and so a crispd server): the single-flight table keeps every
// value it resolved, under the spec's key and its simulation key, for the
// runner's life. That must be the run's counters, not the core that
// produced them.
func TestMemoHoldsNoMachine(t *testing.T) {
	if raceEnabled {
		t.Skip("heap deltas are inflated by the race detector's shadow state")
	}
	const (
		specs         = 16
		limit float64 = 64 << 10
	)
	ctx := context.Background()
	r := newRunner(t, Options{Workers: 1})
	if _, err := r.Run(ctx, sim.RunSpec{Workload: "mcf", Insts: 39_999}); err != nil {
		t.Fatal(err) // builds the pristine image, which is the workload's
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range specs {
		if _, err := r.Run(ctx, sim.RunSpec{Workload: "mcf", Insts: 40_000 + uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	each := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / specs
	t.Logf("%d specs, %.1f KB retained each", specs, each/1024)
	if each > limit {
		t.Errorf("each memoized spec retains %.1f KB of heap, want at most %.0f KB", each/1024, limit/1024)
	}
	if got := r.Stats().Executed; got != specs+1 {
		t.Errorf("Executed = %d, want %d", got, specs+1)
	}
	runtime.KeepAlive(r)
}
