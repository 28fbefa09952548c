package sim_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"crisp/internal/checkpoint"
	"crisp/internal/program"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// TestSampledHostNSIsWallTime: a sampled run's windows take turns on the
// caller's goroutine, so the host time it reports, in the aggregate and
// for each core, is at most the wall time of the call. Under GOMAXPROCS 4
// windows that overlapped would each count the time they shared, and the
// sum would read above the call's wall time.
func TestSampledHostNSIsWallTime(t *testing.T) {
	sched := sim.Sampling{Warm: 20_000, Window: 20_000, Count: 8}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)

	w := workload.ByName("mcf")
	set, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), sched)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r, err := sim.RunSampledContext(context.Background(), set, w.Build(workload.Ref).Prog, sim.DefaultConfig(), sched)
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		t.Fatal(err)
	}
	if r.HostNS <= 0 || r.HostNS > wall {
		t.Errorf("one-core HostNS %d ns, the call took %d ns", r.HostNS, wall)
	}

	cfgs := []sim.Config{sim.DefaultConfig(), sim.DefaultConfig()}
	mset, err := sim.CaptureMultiCheckpointsContext(context.Background(), colocatePair(nil), cfgs, sched)
	if err != nil {
		t.Fatal(err)
	}
	imgs := colocatePair(nil)
	start = time.Now()
	m, err := sim.RunMultiSampledContext(context.Background(), mset, []*program.Program{imgs[0].Prog, imgs[1].Prog}, cfgs, sched)
	wall = time.Since(start).Nanoseconds()
	if err != nil {
		t.Fatal(err)
	}
	if m.HostNS <= 0 || m.HostNS > wall {
		t.Errorf("two-core HostNS %d ns, the call took %d ns", m.HostNS, wall)
	}
	for i, c := range m.Cores {
		if c.HostNS > wall {
			t.Errorf("core %d HostNS %d ns, the call took %d ns", i, c.HostNS, wall)
		}
	}
}

// TestSampledCancel: cancelling a sampled run mid-window returns
// (nil, ctx.Err()) promptly, and no later point is restored. Each window
// is raised to 500M instructions, so the first cannot finish before the
// cancel lands; every later point is an empty one whose restore fails,
// so a runner that went on to it would report that error instead.
func TestSampledCancel(t *testing.T) {
	stall := func(set *checkpoint.Set) {
		for i := range set.WindowInsts {
			set.WindowInsts[i] = 500_000_000
		}
		for i := 1; i < len(set.Points); i++ {
			set.Points[i] = &checkpoint.Point{}
		}
	}
	// run reports whether its call returned a result, and its error.
	cancelled := func(run func(ctx context.Context) (bool, error)) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		got, err := run(ctx)
		if got || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled sampled run: result returned %v, error %v; want no result and %v", got, err, context.Canceled)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
	}

	w := workload.ByName("mcf")
	set, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), smallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	stall(set)
	prog := w.Build(workload.Ref).Prog
	cancelled(func(ctx context.Context) (bool, error) {
		r, err := sim.RunSampledContext(ctx, set, prog, sim.DefaultConfig(), smallSchedule)
		return r != nil, err
	})

	mset, progs, cfgs := captureMultiSmall(t)
	stall(mset)
	cancelled(func(ctx context.Context) (bool, error) {
		m, err := sim.RunMultiSampledContext(ctx, mset, progs, cfgs, multiSmallSchedule)
		return m != nil, err
	})
}
