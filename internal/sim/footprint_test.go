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

// TestResultFootprint pins what a finished run costs whoever keeps its
// result: a runner memoizes every result for its life, and so does a
// crispd server. A Result is counters and per-PC profiles; when it pointed
// into its core, one held result kept the core's ROB, hierarchy,
// predictors and emulator fork alive, about 720 KB.
func TestResultFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap deltas are inflated by the race detector's shadow state")
	}
	const limit = 64 << 10
	cfg := sim.DefaultConfig()
	cfg.Core.MaxInsts = 40_000
	cfg.Prefetcher = sim.PFStride
	ctx := context.Background()

	mcf := workload.ByName("mcf")
	if _, err := sim.RunContext(ctx, mcf.Build(workload.Ref), cfg); err != nil {
		t.Fatal(err) // builds the pristine image, which is the workload's
	}
	perResult(t, "single-core", 8, limit, func() any {
		r, err := sim.RunContext(ctx, mcf.Build(workload.Ref), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	})

	pair := func() []*sim.Image {
		return []*sim.Image{workload.ByName("tailchase").Build(workload.Ref), workload.ByName("streambatch").Build(workload.Ref)}
	}
	cfgs := []sim.Config{cfg, cfg}
	if _, err := sim.RunMultiContext(ctx, pair(), cfgs); err != nil {
		t.Fatal(err)
	}
	perResult(t, "2-core", 4, limit, func() any {
		m, err := sim.RunMultiContext(ctx, pair(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
}

// perResult runs n times, keeping every result, and fails if the heap the
// results retain after a collection exceeds limit bytes apiece.
func perResult(t *testing.T, name string, n int, limit float64, run func() any) {
	t.Helper()
	held := make([]any, 0, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range n {
		held = append(held, run())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	each := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	t.Logf("%s: %d results, %.1f KB retained each", name, n, each/1024)
	if each > limit {
		t.Errorf("a held %s result retains %.1f KB of heap, want at most %.0f KB", name, each/1024, limit/1024)
	}
	runtime.KeepAlive(held)
}
