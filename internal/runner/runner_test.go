package runner

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/ibda"
	"crisp/internal/sim"
)

func newRunner(t *testing.T, opts Options) *Runner {
	t.Helper()
	r, err := New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func chaseSpec(insts uint64) sim.RunSpec {
	return sim.RunSpec{Workload: "pointerchase", Insts: insts}
}

// TestSingleFlight: concurrent requests for one spec run one simulation
// and share the result instance.
func TestSingleFlight(t *testing.T) {
	r := newRunner(t, Options{Workers: 4})
	const callers = 16
	results := make([]*core.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = r.Run(context.Background(), chaseSpec(20_000))
		}()
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result instance", i)
		}
	}
	if s := r.Stats(); s.Executed != 1 {
		t.Fatalf("Executed = %d, want 1", s.Executed)
	}
}

// TestCrispSharesProfile: a CRISP run resolves its train profile through
// the same memo table, so a later explicit request for the profile is a
// hit, not a new simulation.
func TestCrispSharesProfile(t *testing.T) {
	r := newRunner(t, Options{Workers: 2})
	ctx := context.Background()
	spec := chaseSpec(20_000).WithCrisp(crisp.DefaultOptions())
	if _, err := r.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	executed := r.Stats().Executed // crisp run + its train profile
	profile := sim.RunSpec{Workload: "pointerchase", Input: sim.InputTrain, Insts: 20_000}
	if _, err := r.Run(ctx, profile); err != nil {
		t.Fatal(err)
	}
	if after := r.Stats().Executed; after != executed {
		t.Fatalf("train profile re-executed: %d -> %d", executed, after)
	}
	// Same analysis under the same options is memoized too.
	a1, err := r.Analysis(ctx, AnalysisSpec{Workload: "pointerchase", Insts: 20_000, Opts: crisp.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := r.Analysis(ctx, AnalysisSpec{Workload: "pointerchase", Insts: 20_000, Opts: crisp.DefaultOptions()})
	if a1 != a2 {
		t.Error("analysis not memoized")
	}
}

// TestSharedSimulations: of two pairs of specs with one SimKey each,
// submitted together — mcf's default and load-only CRISP options, which tag
// the same PCs at 40k instructions, and IBDA at 1K and ∞, which mcf's 37
// static instructions never fill — one spec per pair runs the simulation
// and the other joins it. Both are results computed here, each stored under
// its own key, and a fresh runner on the store serves all four with
// nothing executed.
func TestSharedSimulations(t *testing.T) {
	ctx := context.Background()
	base := sim.RunSpec{Workload: "mcf", Insts: 40_000}
	loadOnly := crisp.DefaultOptions()
	loadOnly.BranchSlices = false
	specs := []sim.RunSpec{
		base.WithCrisp(crisp.DefaultOptions()), base.WithCrisp(loadOnly),
		base.WithIBDA(ibda.DefaultConfig()), base.WithIBDA(ibda.Config{DLTEntries: 32}),
	}
	dir := t.TempDir()
	runAll := func(r *Runner) []*core.Result {
		hs := make([]*RunHandle, len(specs))
		for i, s := range specs {
			hs[i] = r.Submit(s)
		}
		out := make([]*core.Result, len(specs))
		for i, h := range hs {
			res, err := h.Result(ctx)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}

	r := newRunner(t, Options{Workers: 4, CacheDir: dir})
	res := runAll(r)
	// The two analyses' train profile, and the four specs.
	if s := r.Stats(); s.Executed != 5 || s.Shared != 2 {
		t.Errorf("Executed %d, Shared %d; want 5 and 2", s.Executed, s.Shared)
	}
	if res[0] != res[1] || res[2] != res[3] {
		t.Error("a pair with one SimKey got two results")
	}
	for _, s := range specs {
		if !r.Store().Get(kindRun, s.Key(), &core.Result{}) {
			t.Errorf("%s: nothing stored under its key", s.Key())
		}
	}

	fresh := newRunner(t, Options{Workers: 4, CacheDir: dir})
	runAll(fresh)
	if s := fresh.Stats(); s.Executed != 0 || s.Shared != 0 || s.DiskHits != 4 {
		t.Errorf("over the store: Executed %d, Shared %d, DiskHits %d; want 0, 0 and 4", s.Executed, s.Shared, s.DiskHits)
	}
}

// TestDiskCache: a second runner over the same cache dir serves results
// from disk without simulating, and the JSON round-trip preserves the
// numbers figures are formatted from.
func TestDiskCache(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := chaseSpec(20_000).WithCrisp(crisp.DefaultOptions())

	r1 := newRunner(t, Options{Workers: 2, CacheDir: dir})
	warm, err := r1.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := r1.Stats(); s.Executed == 0 || s.DiskHits != 0 {
		t.Fatalf("cold run stats = %+v", s)
	}

	r2 := newRunner(t, Options{Workers: 2, CacheDir: dir})
	cached, err := r2.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := r2.Stats(); s.Executed != 0 {
		t.Fatalf("warm run executed %d simulations, want 0", s.Executed)
	}
	if cached.IPC() != warm.IPC() || cached.Cycles != warm.Cycles || cached.Insts != warm.Insts ||
		cached.LLCMPKI() != warm.LLCMPKI() || cached.BranchMPKI() != warm.BranchMPKI() {
		t.Fatalf("round-tripped result differs: %+v vs %+v", cached, warm)
	}
	if len(cached.Loads) != len(warm.Loads) {
		t.Fatalf("per-PC load profiles lost in round trip: %d vs %d", len(cached.Loads), len(warm.Loads))
	}
	if cached.Breakdown != warm.Breakdown || cached.Hists != warm.Hists {
		t.Fatal("cycle accounting lost in disk round trip")
	}

	// The analysis was persisted as well: a warm pipeline request must
	// not re-profile.
	if _, err := r2.Analysis(ctx, AnalysisSpec{Workload: "pointerchase", Insts: 20_000, Opts: crisp.DefaultOptions()}); err != nil {
		t.Fatal(err)
	}
	if s := r2.Stats(); s.Executed != 0 {
		t.Fatalf("warm analysis executed %d simulations, want 0", s.Executed)
	}
}

// TestCancellation: a cancelled context aborts a long simulation
// mid-cycle-loop, and the key stays recomputable afterwards.
func TestCancellation(t *testing.T) {
	r := newRunner(t, Options{Workers: 1})
	spec := chaseSpec(200_000_000) // far more than completes in the deadline
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Run(ctx, spec)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; context not threaded into the cycle loop", elapsed)
	}
	// The failed attempt is not memoized: a fresh context can run a
	// (smaller) spec with the same key path.
	if _, err := r.Run(context.Background(), chaseSpec(10_000)); err != nil {
		t.Fatalf("runner unusable after cancellation: %v", err)
	}
}

// TestCancelMidCapture: cancelling a sampled run while its checkpoint
// capture is fast-forwarding must surface the context error promptly,
// under the runner's default options, and leave the store pristine — no
// partial checkpoint entry a later process would restore from, and no
// orphaned lock or temp files.
func TestCancelMidCapture(t *testing.T) {
	dir := t.TempDir()
	r := newRunner(t, Options{Workers: 1, CacheDir: dir})
	// A warm budget far beyond what 50ms covers keeps the cancellation
	// inside the first warm phase, minutes of fast-forward from its end
	// and before any store publish: only a capture that looks at its
	// context inside a phase comes back in time.
	spec := sim.RunSpec{Workload: "pointerchase",
		Sampling: &sim.Sampling{Warm: 2_000_000_000, Window: 1000, Count: 4}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := r.Run(ctx, spec); err == nil {
		t.Fatal("expected cancellation error")
	}
	if late := time.Since(start) - 50*time.Millisecond; late > 2*time.Second {
		t.Errorf("the run came back %v after its deadline, want within 2s", late)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("cancelled capture left %q in the store", e.Name())
	}
	if st := r.Stats(); st.CkptCaptured != 0 || st.CaptureNS != 0 || st.WarmInsts != 0 {
		t.Errorf("cancelled capture counted as completed: %+v", st)
	}
}

// TestSampledSharing: sampled specs are content-keyed like any other —
// a repeat is a memo hit — and configs that differ only in scheduler or
// prefetcher share one checkpoint capture. The disk round trip keeps the
// sampling metadata the metrics sink exports.
func TestSampledSharing(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := sim.Sampling{Warm: 15_000, Window: 5_000, Count: 2}
	base := sim.RunSpec{Workload: "pointerchase", Sampling: &s}

	r1 := newRunner(t, Options{Workers: 4, CacheDir: dir})
	warm, err := r1.Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if warm.SampledWindows != s.Count || warm.FFInsts == 0 {
		t.Fatalf("sampled result metadata = windows %d ff %d", warm.SampledWindows, warm.FFInsts)
	}
	// Same spec again: memo hit, no new simulation.
	again, err := r1.Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if again != warm {
		t.Error("identical sampled spec re-executed")
	}
	executed := r1.Stats().Executed
	// Different scheduler and prefetcher: new simulations, but the
	// functional prefix is restored from the shared checkpoint set, so
	// each costs only the detailed windows.
	rnd := base
	rnd.Sched = sim.SchedRandom
	nopf := base
	nopf.Prefetcher = sim.PFNone
	for _, spec := range []sim.RunSpec{rnd, nopf} {
		res, err := r1.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res == warm {
			t.Error("distinct config shared a result")
		}
	}
	if after := r1.Stats().Executed; after != executed+2 {
		t.Errorf("Executed %d -> %d, want +2", executed, after)
	}
	// Any sampling-field change is a different key.
	s2 := s
	s2.Count++
	changed, err := r1.Run(ctx, sim.RunSpec{Workload: "pointerchase", Sampling: &s2})
	if err != nil {
		t.Fatal(err)
	}
	if changed == warm {
		t.Error("changed sampling schedule hit the old key")
	}

	// A fresh runner over the same cache dir serves the sampled result
	// from disk, metadata intact.
	r2 := newRunner(t, Options{Workers: 2, CacheDir: dir})
	cached, err := r2.Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats().Executed; got != 0 {
		t.Fatalf("warm sampled run executed %d simulations, want 0", got)
	}
	if cached.Cycles != warm.Cycles || cached.Insts != warm.Insts ||
		cached.SampledWindows != warm.SampledWindows || cached.FFInsts != warm.FFInsts {
		t.Fatalf("sampled result lost in disk round trip: %+v vs %+v", cached, warm)
	}
}

// TestUnknownWorkload: a bad name produces an error enumerating the
// registry instead of a nil-pointer panic in a worker.
func TestUnknownWorkload(t *testing.T) {
	r := newRunner(t, Options{Workers: 1})
	_, err := r.Run(context.Background(), sim.RunSpec{Workload: "mfc", Insts: 1000})
	if err == nil || !strings.Contains(err.Error(), `"mfc"`) || !strings.Contains(err.Error(), "mcf") {
		t.Fatalf("err = %v, want unknown-workload error listing known names", err)
	}
	if err := ValidateWorkloads([]string{"mcf", "lbm"}); err != nil {
		t.Fatalf("ValidateWorkloads(valid) = %v", err)
	}
	if err := ValidateWorkloads([]string{"mcf", "bogus"}); err == nil {
		t.Fatal("ValidateWorkloads missed a bad name")
	}
}

// TestSubmitHandles: background submission overlaps independent runs and
// handles join the in-flight work.
func TestSubmitHandles(t *testing.T) {
	r := newRunner(t, Options{Workers: 4})
	h1 := r.Submit(chaseSpec(20_000))
	h2 := r.Submit(sim.RunSpec{Workload: "mcf", Insts: 20_000})
	h3 := r.Submit(chaseSpec(20_000)) // duplicate of h1
	ctx := context.Background()
	r1, err := h1.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Result(ctx); err != nil {
		t.Fatal(err)
	}
	r3, err := h3.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r3 {
		t.Error("duplicate submission produced a distinct result")
	}
	if s := r.Stats(); s.Executed != 2 {
		t.Errorf("Executed = %d, want 2", s.Executed)
	}
}
