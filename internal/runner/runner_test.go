package runner

import (
	"context"
	"os"
	"path/filepath"
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
// nothing executed. The subtests share across Run and RunMulti
// (sharedTimings).
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
	sharedTimings(t)
}

// sharedTimings: a simulation's key is its set's memo key and its cores'
// SimKeys, whether Run or RunMulti asks for it. So (a) a co-run whose core 0
// runs the CRISP scheduler untagged joins the OOO co-run, its host time
// counted once; (b) a full-detail Run joins the one-core RunMulti of its
// clause; and (c) a sampled Run and the sampled one-core RunMulti of its
// clause do not share, because one restores the four-variant set and the
// other a co-run's. Each pair runs on a fresh runner, the second spec after
// the first has returned. Mutation this fails under: the set key dropped
// from the simulation key ((c) shares).
func sharedTimings(t *testing.T) {
	ctx := context.Background()
	// check runs first then second on a fresh runner and returns its Stats
	// and first's result.
	check := func(t *testing.T, first, second func(*Runner) (*sim.MultiResult, error), shared bool) (Stats, *sim.MultiResult) {
		t.Helper()
		r := newRunner(t, Options{Workers: 2})
		m, err := first(r)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := second(r)
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		want := int64(0)
		if shared {
			want = 1
		}
		if st.Executed != 2 || st.Shared != want {
			t.Errorf("Executed %d, Shared %d; want 2 and %d", st.Executed, st.Shared, want)
		}
		if same := m.Cores[0] == m2.Cores[0]; same != shared {
			t.Errorf("the two specs got one result: %v, want %v", same, shared)
		}
		return st, m
	}
	run := func(spec sim.RunSpec) func(*Runner) (*sim.MultiResult, error) {
		return func(r *Runner) (*sim.MultiResult, error) {
			res, err := r.Run(ctx, spec)
			return &sim.MultiResult{Cores: []*core.Result{res}}, err
		}
	}
	multi := func(spec sim.MultiSpec) func(*Runner) (*sim.MultiResult, error) {
		return func(r *Runner) (*sim.MultiResult, error) { return r.RunMulti(ctx, spec) }
	}

	t.Run("co-run", func(t *testing.T) {
		ooo := sim.MultiSpec{Cores: []sim.RunSpec{{Workload: "tailchase", Insts: 20_000}, {Workload: "streambatch", Insts: 20_000}}}
		untagged := sim.MultiSpec{Cores: append([]sim.RunSpec(nil), ooo.Cores...)}
		untagged.Cores[0].Sched = sim.SchedCRISP
		st, m := check(t, multi(ooo), multi(untagged), true)
		if st.DetailNS != m.HostNS || uint64(st.DetailInsts) != m.Cores[0].Insts+m.Cores[1].Insts {
			t.Errorf("DetailNS %d, DetailInsts %d; want one co-run's %d and %d",
				st.DetailNS, st.DetailInsts, m.HostNS, m.Cores[0].Insts+m.Cores[1].Insts)
		}
	})
	t.Run("full detail", func(t *testing.T) {
		spec := chaseSpec(20_000)
		check(t, run(spec), multi(sim.MultiSpec{Cores: []sim.RunSpec{spec}}), true)
	})
	t.Run("sampled", func(t *testing.T) {
		s := sim.Sampling{Warm: 15_000, Window: 5_000, Count: 2}
		spec := sim.RunSpec{Workload: "pointerchase", Sampling: &s}
		st, _ := check(t, run(spec), multi(sim.MultiSpec{Cores: []sim.RunSpec{{Workload: "pointerchase"}}, Sampling: &s}), false)
		if st.CkptCaptured != 2 {
			t.Errorf("CkptCaptured %d; want 2, a four-variant set and a co-run's", st.CkptCaptured)
		}
	})
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

// TestCancelMidCaptureWithWaitingPeer: a runner whose capture is cancelled
// between slices while a second runner on the same store waits on the
// set's lock hands the claim over. The two sweep the same set under two
// schedulers, so the second waits on the set's lock, not on the run's. The
// waiter takes the claim within a second of the cancellation, captures
// once and publishes the set; the cancelled runner counts no capture and
// leaves no entry and no lock file.
func TestCancelMidCaptureWithWaitingPeer(t *testing.T) {
	dir := t.TempDir()
	s := sim.Sampling{Warm: 4_000_000, Window: 1000, Count: 2}
	if raceEnabled {
		s.Warm /= 8
	}
	spec := sim.RunSpec{Workload: "pointerchase", Sampling: &s}
	peer := spec
	peer.Sched = sim.SchedRandom
	setLock := filepath.Join(dir, kindCkpt+"-"+checkpointKey(spec.Workload, variantOf(spec), s)+".lock")

	cancelled := newRunner(t, Options{Workers: 1, CacheDir: dir})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { _, err := cancelled.Run(ctx, spec); errc <- err }()
	for { // the lock file appears when the first runner claims the set
		if _, err := os.Stat(setLock); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}

	waiting := make(chan struct{})
	var once sync.Once
	lockBusy = func() { once.Do(func() { close(waiting) }) }
	defer func() { lockBusy = nil }()
	waiter := newRunner(t, Options{Workers: 1, CacheDir: dir})
	done := make(chan error, 1)
	go func() { _, err := waiter.Run(context.Background(), peer); done <- err }()
	<-waiting
	busy := time.Now()
	cancel()
	cancelledAt := time.Now()
	if err := <-errc; !ctxErr(err) {
		t.Fatalf("the cancelled run returned %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The waiter's lock wait runs from before busy to its claim.
	if late := time.Duration(waiter.Stats().LockWaitNS) - cancelledAt.Sub(busy); late > time.Second {
		t.Errorf("the waiter took the claim %v after the cancellation, want within 1s", late)
	}
	if st := waiter.Stats(); st.CkptCaptured != 1 || st.CkptDiskHits != 0 || st.Executed != 1 {
		t.Errorf("waiter: captured %d, disk hits %d, executed %d; want 1, 0, 1", st.CkptCaptured, st.CkptDiskHits, st.Executed)
	}
	if st := cancelled.Stats(); st.CkptCaptured != 0 || st.CaptureNS != 0 || st.WarmInsts != 0 || st.Executed != 0 {
		t.Errorf("the cancelled runner counted work: %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		filepath.Base(strings.TrimSuffix(setLock, ".lock")) + ".bin": true,
		kindRun + "-" + peer.Key() + ".json":                         true,
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("unexpected %q in the store", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("the waiter published no %q", name)
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
