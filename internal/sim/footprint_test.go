package sim_test

import (
	"context"
	"runtime"
	"testing"

	"crisp/internal/sim"
	"crisp/internal/workload"
)

// TestSetFootprint pins what a checkpoint set costs the process that keeps
// it: a sweep restores every configuration of an app from one set, and a
// runner keeps each set it captured or read for its whole life. mcf's set
// under the sweep's schedule is 6 points of 4 prefetcher variants, each
// with a warmed hierarchy of 17,404 lines; the image is the workload's and
// not counted. At 25 bytes a line, the live level's, the set held 12.0 MB.
func TestSetFootprint(t *testing.T) {
	const limit = 6.5e6
	img := workload.ByName("mcf").Build(workload.Ref)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	set, err := sim.CaptureCheckpointsContext(context.Background(), img, sim.DefaultConfig(), sim.AutoSampling(2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("mcf set: %d points, %.1f MB retained", len(set.Points), held/1e6)
	if held > limit {
		t.Errorf("mcf's set retains %.1f MB of heap, want at most %.1f MB", held/1e6, limit/1e6)
	}
	runtime.KeepAlive(set)
	runtime.KeepAlive(img)
}
