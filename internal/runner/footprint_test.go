package runner

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"crisp/internal/sim"
	"crisp/internal/workload"
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

// TestSetLeavesMemo: a checkpoint set stays in the memo only while a run
// submitted over it has not returned. On a one-worker pool a second spec
// over the set is submitted once the first has captured it and still holds
// the only worker token, so the set is captured once: the second counted
// its demand at submission, not at its token or when it joined the set.
// Then the set leaves the memo, so the heap keeps far less than a set, and
// a third spec reads it back from the store instead of capturing it again.
// A storeless runner has no copy to read back: it keeps the set, and its
// third spec neither captures nor reads. The same holds for a two-core
// co-scheduled set.
func TestSetLeavesMemo(t *testing.T) {
	const limit float64 = 1 << 20
	s := sim.AutoSampling(200_000)
	co := func(sched0, sched1 string) sim.MultiSpec {
		return sim.MultiSpec{Cores: []sim.RunSpec{
			{Workload: "tailchase", Sched: sched0},
			{Workload: "streambatch", Sched: sched1},
		}, Sampling: &s}
	}
	cases := []struct {
		name string
		apps []string
		// submit starts the i-th of three specs over one set; the wait it
		// returns blocks for the result.
		submit func(r *Runner, i int) func(context.Context) error
	}{
		{"single", []string{"mcf"}, func(r *Runner, i int) func(context.Context) error {
			spec := []sim.RunSpec{
				{Workload: "mcf", Prefetcher: sim.PFStride, Sampling: &s},
				{Workload: "mcf", Sched: sim.SchedRandom, Sampling: &s},
				{Workload: "mcf", PerfectBP: true, Sampling: &s},
			}[i]
			h := r.Submit(spec)
			return func(ctx context.Context) error { _, err := h.Result(ctx); return err }
		}},
		{"co-run", []string{"tailchase", "streambatch"}, func(r *Runner, i int) func(context.Context) error {
			spec := []sim.MultiSpec{
				co("", ""),
				co(sim.SchedRandom, ""),
				co("", sim.SchedRandom),
			}[i]
			h := r.SubmitMulti(spec)
			return func(ctx context.Context) error { _, err := h.Result(ctx); return err }
		}},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, app := range c.apps {
				workload.ByName(app).Build(workload.Ref) // the pristine image, which is the workload's
			}
			for _, storeless := range []bool{false, true} {
				captured, submitted := make(chan struct{}), make(chan struct{})
				var once sync.Once
				opts := Options{Workers: 1, OnEvent: func(ev TaskEvent) {
					if (ev.Kind == kindCkpt || ev.Kind == kindMultiCkpt) && ev.State >= TaskDone {
						once.Do(func() { close(captured); <-submitted })
					}
				}}
				if !storeless {
					opts.CacheDir = t.TempDir()
				}
				r := newRunner(t, opts)
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				first := c.submit(r, 0)
				<-captured // the first spec holds the set (or its error) and the only token
				second := c.submit(r, 1)
				close(submitted)
				for _, wait := range []func(context.Context) error{first, second} {
					if err := wait(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if st := r.Stats(); st.CkptCaptured != 1 || st.CkptDiskHits != 0 {
					t.Fatalf("storeless=%v: two specs over one set: %d captures, %d disk hits; want 1, 0", storeless, st.CkptCaptured, st.CkptDiskHits)
				}
				settle(t, r)
				runtime.GC()
				runtime.ReadMemStats(&after)
				held := float64(after.HeapAlloc) - float64(before.HeapAlloc)
				t.Logf("storeless=%v: %.1f KB retained after two specs", storeless, held/1024)
				if !storeless && !raceEnabled && held > limit {
					t.Errorf("the runner retains %.1f KB after every spec over the set returned, want at most %.0f KB", held/1024, limit/1024)
				}
				if err := c.submit(r, 2)(ctx); err != nil {
					t.Fatal(err)
				}
				settle(t, r)
				want := Stats{CkptCaptured: 1, CkptDiskHits: 1}
				if storeless {
					want.CkptDiskHits = 0
				}
				if st := r.Stats(); st.CkptCaptured != want.CkptCaptured || st.CkptDiskHits != want.CkptDiskHits {
					t.Errorf("storeless=%v: a third spec: %d captures, %d disk hits in all; want %d, %d", storeless, st.CkptCaptured, st.CkptDiskHits, want.CkptCaptured, want.CkptDiskHits)
				}
				runtime.KeepAlive(r)
			}
		})
	}
}

// settle waits until no submitted run still counts a demand for a set: a
// handle's Result returns once the run's memo entry resolves, a moment
// before the goroutine that submitted it ends its demand.
func settle(t *testing.T, r *Runner) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		n := len(r.demand)
		r.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sets still demanded 10s after every submitted run returned", n)
		}
	}
}
