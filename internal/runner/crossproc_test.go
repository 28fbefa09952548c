package runner

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"crisp/internal/core"
	"crisp/internal/sim"
)

// sweepSpecs is the 4-config sampled sweep the cross-process workers each
// submit: one schedule (so one checkpoint set), four prefetcher configs.
func sweepSpecs() []sim.RunSpec {
	s := sim.Sampling{Warm: 15_000, Window: 5_000, Count: 2}
	specs := make([]sim.RunSpec, 0, 4)
	for _, pf := range []sim.PrefetcherKind{sim.PFBOPStream, sim.PFNone, sim.PFStride, sim.PFGHB} {
		specs = append(specs, sim.RunSpec{Workload: "pointerchase", Sampling: &s, Prefetcher: pf})
	}
	return specs
}

// childEnvDir is the env var that turns TestCrossProcessChild from a
// skip into a sweep worker; its value is the shared store directory.
// childEnvCrash, set as well, makes it the writer that dies mid-publish
// instead (crashMidPublish).
const (
	childEnvDir   = "CRISP_CROSSPROC_DIR"
	childEnvCrash = "CRISP_CROSSPROC_CRASH"
)

// TestCrossProcessChild is the worker half of TestCrossProcessDedup and
// TestCrossProcessCrashMidPublish: a re-exec of this test binary that
// sweeps the shared store and reports its counters on stdout, or crashes
// mid-publish. It skips when run as part of a normal test pass.
func TestCrossProcessChild(t *testing.T) {
	dir := os.Getenv(childEnvDir)
	if dir == "" {
		t.Skip("helper process for the cross-process tests")
	}
	if os.Getenv(childEnvCrash) != "" {
		crashMidPublish(t, dir)
		return
	}
	r, err := New(context.Background(), Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	specs := sweepSpecs()
	handles := make([]*RunHandle, len(specs))
	for i, spec := range specs {
		handles[i] = r.Submit(spec)
	}
	mh := r.SubmitMulti(multiSweepSpec())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i, h := range handles {
		if _, err := h.Result(ctx); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
	if _, err := mh.Result(ctx); err != nil {
		t.Fatalf("multi spec: %v", err)
	}
	b, err := json.Marshal(r.Stats())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("CHILDSTATS %s\n", b)
}

// multiSweepSpec is the sampled co-scheduled run each sweep worker adds
// beyond sweepSpecs: one 2-core tuple under one schedule, so between
// two processes the multi-capture must run exactly once.
func multiSweepSpec() sim.MultiSpec {
	s := sim.Sampling{Warm: 15_000, Window: 5_000, Count: 2}
	return sim.MultiSpec{Cores: []sim.RunSpec{
		{Workload: "tailchase"},
		{Workload: "streambatch"},
	}, Sampling: &s}
}

// TestCrossProcessDedup is the acceptance test for cross-process
// single-flight: two OS processes sweep the same spec list — four
// sampled single-core configs plus one sampled co-scheduled 2-core
// tuple — against one shared store, concurrently. Between them they
// must fast-forward each checkpoint schedule exactly once (one
// single-core set, one multi-core set) and simulate each spec exactly
// once (the file locks serialize, the store re-checks dedup), and every
// entry left in the store must decode cleanly.
func TestCrossProcessDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	type childOut struct {
		out []byte
		err error
	}
	const children = 2
	outs := make([]childOut, children)
	var wg sync.WaitGroup
	for i := 0; i < children; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := exec.Command(exe, "-test.run=^TestCrossProcessChild$", "-test.v")
			cmd.Env = append(os.Environ(), childEnvDir+"="+dir)
			outs[i].out, outs[i].err = cmd.CombinedOutput()
		}()
	}
	wg.Wait()

	var sum Stats
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("child %d failed: %v\n%s", i, o.err, o.out)
		}
		var st Stats
		found := false
		sc := bufio.NewScanner(bytes.NewReader(o.out))
		for sc.Scan() {
			if line, ok := strings.CutPrefix(sc.Text(), "CHILDSTATS "); ok {
				if err := json.Unmarshal([]byte(line), &st); err != nil {
					t.Fatalf("child %d stats: %v", i, err)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("child %d printed no CHILDSTATS line:\n%s", i, o.out)
		}
		t.Logf("child %d: executed %d, disk hits %d, ckpt captured %d, ckpt disk hits %d, lock wait %v",
			i, st.Executed, st.DiskHits, st.CkptCaptured, st.CkptDiskHits, time.Duration(st.LockWaitNS))
		sum.Executed += st.Executed
		sum.DiskHits += st.DiskHits
		sum.CkptCaptured += st.CkptCaptured
		sum.CkptDiskHits += st.CkptDiskHits
	}

	specs := int64(len(sweepSpecs())) + 1 // + the co-scheduled tuple
	if sum.CkptCaptured != 2 {
		t.Errorf("CkptCaptured sum = %d, want 2 (one single-core set, one multi-core set): a fast-forward ran more than once across processes", sum.CkptCaptured)
	}
	if sum.Executed != specs {
		t.Errorf("Executed sum = %d, want %d: some spec simulated twice (or was lost)", sum.Executed, specs)
	}
	// The second process resolved every spec it didn't execute from the
	// store, and at least one side loaded the checkpoint set from disk
	// or memory rather than recapturing.
	if sum.Executed+sum.DiskHits < 2*specs {
		t.Errorf("Executed+DiskHits = %d, want >= %d: a spec resolved without compute or store", sum.Executed+sum.DiskHits, 2*specs)
	}

	// No corrupt or temporary debris: every surviving entry decodes.
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".lock"):
			t.Errorf("lock file %s survived both sweeps", name)
		case strings.HasSuffix(name, ".tmp"):
			t.Errorf("temp file %s survived both sweeps", name)
		case strings.HasSuffix(name, ".bin"):
			// "mckpt-" before "ckpt-": the multi prefix would survive a
			// single-core trim and decode under the wrong codec.
			if key, ok := strings.CutPrefix(name, kindMultiCkpt+"-"); ok {
				if _, ok := s.GetMultiCheckpoint(strings.TrimSuffix(key, ".bin")); !ok {
					t.Errorf("multi checkpoint entry %s is corrupt", name)
				}
			} else {
				key := strings.TrimSuffix(strings.TrimPrefix(name, kindCkpt+"-"), ".bin")
				if _, ok := s.GetCheckpoint(key); !ok {
					t.Errorf("checkpoint entry %s is corrupt", name)
				}
			}
			checked++
		case strings.HasSuffix(name, ".json"):
			kind, key, ok := strings.Cut(strings.TrimSuffix(name, ".json"), "-")
			if !ok {
				t.Errorf("unrecognized store file %s", name)
				continue
			}
			var v map[string]any
			if !s.Get(kind, key, &v) {
				t.Errorf("store entry %s is corrupt", name)
			}
			checked++
		}
	}
	if checked < int(specs)+2 { // one result per spec + two checkpoint sets
		t.Errorf("store holds %d entries, want at least %d", checked, specs+2)
	}
}

// crashSpec is the run the crashing child claims and the parent resolves.
func crashSpec() sim.RunSpec { return chaseSpec(20_000) }

// crashMidPublish is what put does up to its rename, then an exit: claim
// the run key, write half the encoded result over the lock body, and end
// the process holding the claim, as a writer killed mid-publish would.
func crashMidPublish(t *testing.T, dir string) {
	ctx, spec := context.Background(), crashSpec()
	res, err := newRunner(t, Options{Workers: 1}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Lock(ctx, kindRun, spec.Key()); err != nil {
		t.Fatal(err)
	}
	f, _ := s.held.Load(s.lockPath(kindRun, spec.Key()))
	if _, err := f.(*os.File).WriteAt(data[:len(data)/2], 0); err != nil {
		t.Fatal(err)
	}
}

// TestCrossProcessCrashMidPublish: a process that dies between writing
// an entry over its lock body and the rename leaves a lock holding half
// an entry, the one crash state publishing through the lock adds. Its
// content is no lock body, so a runner sharing the store must break it
// within one poll of its turning lockEmptyTTL old and take it a poll
// later, then compute the spec once and leave a decodable entry and no
// lock.
func TestCrossProcessCrashMidPublish(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run=^TestCrossProcessChild$", "-test.v")
	cmd.Env = append(os.Environ(), childEnvDir+"="+dir, childEnvCrash+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child failed: %v\n%s", err, out)
	}
	spec := crashSpec()
	r := newRunner(t, Options{Workers: 1, CacheDir: dir})
	lock := r.store.lockPath(kindRun, spec.Key())
	fi, err := os.Stat(lock)
	if err != nil {
		t.Fatalf("the child left no lock: %v", err)
	}
	young := time.Since(fi.ModTime()) < lockEmptyTTL-lockPollInterval
	if _, err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Executed != 1 || st.DiskHits != 0 {
		t.Errorf("Executed %d, DiskHits %d; want one recompute", st.Executed, st.DiskHits)
	}
	// A poll to notice the lock has aged out, one more to take it; the
	// slack is scheduling.
	const slack = 250 * time.Millisecond
	wait := time.Duration(st.LockWaitNS)
	t.Logf("waited %v on the half-written lock", wait)
	if wait > lockEmptyTTL+2*lockPollInterval+slack || young && wait < lockPollInterval {
		t.Errorf("lock wait %v (lock young at start: %v), want the half-written lock broken once %v old", wait, young, lockEmptyTTL)
	}
	if !r.store.Get(kindRun, spec.Key(), &core.Result{}) {
		t.Error("no decodable entry after the recompute")
	}
	if _, err := os.Stat(lock); !os.IsNotExist(err) {
		t.Errorf("lock left behind (stat err = %v)", err)
	}
}
