package runner

import (
	"context"
	"sync"
	"testing"

	"crisp/internal/sim"
)

// TestRunMultiDedup: multi-core runs flow through the same single-flight
// and persistent-store machinery as single-core ones — a repeated spec
// memoizes in-process, and a second runner over the same cache dir loads
// the published result from disk instead of re-simulating.
func TestRunMultiDedup(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := sim.MultiSpec{Cores: []sim.RunSpec{
		{Workload: "tailchase", Insts: 20_000},
		{Workload: "streambatch", Insts: 20_000},
	}}

	r1 := newRunner(t, Options{CacheDir: dir})
	a, err := r1.RunMulti(ctx, spec)
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if len(a.Cores) != 2 || a.Cores[0].Insts == 0 || a.Cores[1].Insts == 0 {
		t.Fatalf("empty multi result: %+v", a)
	}
	b, err := r1.RunMulti(ctx, spec)
	if err != nil {
		t.Fatalf("RunMulti (repeat): %v", err)
	}
	if a != b {
		t.Error("repeated RunMulti did not memoize in-process")
	}
	if ex := r1.Stats().Executed; ex != 1 {
		t.Errorf("Executed = %d, want 1", ex)
	}

	r2 := newRunner(t, Options{CacheDir: dir})
	c, err := r2.RunMulti(ctx, spec)
	if err != nil {
		t.Fatalf("RunMulti (second process): %v", err)
	}
	if r2.Stats().Executed != 0 {
		t.Error("second runner re-simulated despite a published store entry")
	}
	for i := range a.Cores {
		if a.Cores[i].Cycles != c.Cores[i].Cycles || a.Cores[i].Insts != c.Cores[i].Insts {
			t.Errorf("core %d: disk round-trip disagrees: %d/%d vs %d/%d cycles/insts",
				i, a.Cores[i].Cycles, a.Cores[i].Insts, c.Cores[i].Cycles, c.Cores[i].Insts)
		}
	}
	if a.DRAM.Reads != c.DRAM.Reads || a.LLC.Misses != c.LLC.Misses {
		t.Error("shared-level stats did not survive the disk round-trip")
	}
}

// TestMultiSampledStoreFastPath: the co-scheduled capture is the
// expensive prefix a sampled colocate sweep amortizes, so a second
// process sweeping a different scheduler of the same workload tuple
// must load the persisted set instead of re-running the
// fast-forward — and the capture's own lifecycle must surface as
// "mckpt" task events so observers can see what a cold run is doing.
func TestMultiSampledStoreFastPath(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := sim.Sampling{Warm: 15_000, Window: 5_000, Count: 2}
	spec := sim.MultiSpec{Cores: []sim.RunSpec{
		{Workload: "tailchase"},
		{Workload: "streambatch"},
	}, Sampling: &s}

	var mu sync.Mutex
	var kinds []string
	r1 := newRunner(t, Options{CacheDir: dir, OnEvent: func(ev TaskEvent) {
		mu.Lock()
		defer mu.Unlock()
		kinds = append(kinds, ev.Kind+":"+ev.State.String())
	}})
	if _, err := r1.RunMulti(ctx, spec); err != nil {
		t.Fatal(err)
	}
	st := r1.Stats()
	if st.CkptCaptured != 1 || st.CkptDiskHits != 0 {
		t.Errorf("first runner: captured %d / disk hits %d, want 1 / 0", st.CkptCaptured, st.CkptDiskHits)
	}
	mu.Lock()
	var sawRunning, sawDone bool
	for _, k := range kinds {
		sawRunning = sawRunning || k == "mckpt:running"
		sawDone = sawDone || k == "mckpt:done"
	}
	mu.Unlock()
	if !sawRunning || !sawDone {
		t.Errorf("capture lifecycle not observed (events %v)", kinds)
	}

	// A different core-0 scheduler shares the set (the key hashes the
	// workload/input/prefetcher tuple, not the scheduler), so a fresh
	// runner over the same store restores rather than recaptures.
	other := spec
	other.Cores = append([]sim.RunSpec(nil), spec.Cores...)
	other.Cores[0].Sched = sim.SchedRandom
	r2 := newRunner(t, Options{CacheDir: dir})
	if _, err := r2.RunMulti(ctx, other); err != nil {
		t.Fatal(err)
	}
	st2 := r2.Stats()
	if st2.Executed != 1 {
		t.Errorf("second runner executed %d specs, want 1 (new scheduler config)", st2.Executed)
	}
	if st2.CkptCaptured != 0 || st2.CkptDiskHits != 1 {
		t.Errorf("second runner: captured %d / disk hits %d, want 0 / 1 (store fast path)", st2.CkptCaptured, st2.CkptDiskHits)
	}
}
