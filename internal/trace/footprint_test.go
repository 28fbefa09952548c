package trace_test

import (
	"runtime"
	"testing"

	"crisp/internal/sim"
	"crisp/internal/workload"
)

// TestTraceFootprint pins what a held trace costs: the runner memoizes
// every train trace for its life, so a 1.8M-instruction train capture of
// tailchase (which colocate's sampled co-runs analyse), mcf and moses may
// retain at most 3 bytes per instruction of heap after a collection.
func TestTraceFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap deltas are inflated by the race detector's shadow state")
	}
	const (
		insts         = 1_800_000
		limit float64 = 3
	)
	for _, name := range []string{"tailchase", "mcf", "moses"} {
		img := workload.ByName(name).Build(workload.Train)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := sim.CaptureTrace(img, insts)
		runtime.GC()
		runtime.ReadMemStats(&after)
		per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(tr.Len())
		t.Logf("%s: %d records, %.2f B retained each", name, tr.Len(), per)
		if tr.Len() != insts {
			t.Errorf("%s: %d records, want %d", name, tr.Len(), insts)
		}
		if per > limit {
			t.Errorf("%s: a trace retains %.2f B per instruction, want at most %.0f", name, per, limit)
		}
		runtime.KeepAlive(tr)
		runtime.KeepAlive(img)
	}
}
