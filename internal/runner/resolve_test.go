package runner

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// cannedRemote answers every delegated task at once.
type cannedRemote struct{}

func (cannedRemote) Run(context.Context, sim.RunSpec) (*core.Result, error) {
	return &core.Result{Cycles: 1}, nil
}
func (cannedRemote) RunMulti(context.Context, sim.MultiSpec) (*sim.MultiResult, error) {
	return &sim.MultiResult{}, nil
}
func (cannedRemote) Analysis(context.Context, AnalysisSpec) (*crisp.Analysis, error) {
	return &crisp.Analysis{}, nil
}
func (cannedRemote) Footprint(context.Context, AnalysisSpec) (*crisp.Footprint, error) {
	return &crisp.Footprint{}, nil
}

// lockUse is what an outcome of resolve does with the task's file lock,
// as LockWaitNS shows it: never asked for, taken free (an acquire still
// takes its microseconds), or waited for through at least one poll.
type lockUse string

const (
	lockUntouched lockUse = "never asked for"
	lockTaken     lockUse = "taken"
	lockWaitedFor lockUse = "waited for"
)

func (u lockUse) allows(waitNS int64) bool {
	switch u {
	case lockUntouched:
		return waitNS == 0
	case lockWaitedFor:
		return waitNS >= lockPollInterval.Nanoseconds()
	}
	return waitNS > 0
}

// ladderKind is one persisted task family as the ladder test drives it.
type ladderKind struct {
	kind, key string
	run       func(context.Context, *Runner) error
	delegable bool
	// What a store hit and a compute on an empty store add to Stats beyond
	// the family's own Started/Done; fresh counts dependency tasks too.
	hit, fresh Stats
}

// TestResolveLadder drives every persisted kind through every outcome of
// resolve that applies to it — delegated, hit on the first load, hit on the
// load under the lock after waiting for it, computed and published,
// computed with the publish failing — and checks per cell the Stats delta,
// the events of the kind's own key, that no lock file is left, and for run
// the metrics row. A last row is a hand-made task whose closures look at
// the lock, which pins the order the six kinds rely on: the first load
// outside the lock; the second load, compute, publish and the observer
// under it. Mutations this fails under: skipping the second load,
// releasing the lock before the publish, counting a hit in resolve as well
// as in the loader.
func TestResolveLadder(t *testing.T) {
	ctx := context.Background()
	sched := sim.Sampling{Warm: 15_000, Window: 5_000, Count: 2}
	run := chaseSpec(20_000)
	multi := sim.MultiSpec{Cores: []sim.RunSpec{chaseSpec(20_000), {Workload: "streambatch", Insts: 20_000}}}
	pipe := AnalysisSpec{Workload: "pointerchase", Insts: 20_000, Opts: crisp.DefaultOptions()}
	clause := sim.RunSpec{Workload: "pointerchase"}
	mset := sim.MultiSpec{Cores: []sim.RunSpec{{Workload: "tailchase"}, {Workload: "streambatch"}}, Sampling: &sched}
	msetCfgs, err := mset.Configs()
	if err != nil {
		t.Fatal(err)
	}
	kinds := []ladderKind{
		{kindRun, run.Key(), func(ctx context.Context, r *Runner) error { _, err := r.Run(ctx, run); return err },
			true, Stats{DiskHits: 1}, Stats{Executed: 1}},
		{kindMulti, multi.Key(), func(ctx context.Context, r *Runner) error { _, err := r.RunMulti(ctx, multi); return err },
			true, Stats{DiskHits: 1}, Stats{Executed: 1}},
		// A fresh analysis runs its train profile and captures the trace; a
		// fresh footprint resolves the analysis first.
		{kindAnalysis, pipe.Key(), func(ctx context.Context, r *Runner) error { _, err := r.Analysis(ctx, pipe); return err },
			true, Stats{DiskHits: 1}, Stats{Executed: 1, Started: 2, Done: 2}},
		{kindFootprint, pipe.Key(), func(ctx context.Context, r *Runner) error { _, err := r.Footprint(ctx, pipe); return err },
			true, Stats{DiskHits: 1}, Stats{Executed: 1, Started: 3, Done: 3}},
		{kindCkpt, checkpointKey("pointerchase", workload.Ref, sched), func(ctx context.Context, r *Runner) error {
			_, err := r.checkpointSet(ctx, clause, sched)
			return err
		}, false, Stats{CkptDiskHits: 1}, Stats{CkptCaptured: 1}},
		{kindMultiCkpt, multiCheckpointKey(mset), func(ctx context.Context, r *Runner) error {
			_, err := r.multiCheckpointSet(ctx, mset, msetCfgs)
			return err
		}, false, Stats{CkptDiskHits: 1}, Stats{CkptCaptured: 1}},
	}

	for _, k := range kinds {
		// The published entry, for the two hit outcomes to plant.
		seed := t.TempDir()
		if err := k.run(ctx, newRunner(t, Options{CacheDir: seed})); err != nil {
			t.Fatal(err)
		}
		entry, err := os.ReadFile((&Store{dir: seed}).path(k.kind, k.key))
		if err != nil {
			t.Fatalf("%s: the seeding run published nothing: %v", k.kind, err)
		}

		// cell runs one outcome: prepare sees the runner before the task
		// starts and returns what to do once the task waits on its lock (nil
		// when the outcome never waits).
		cell := func(name string, remote Remote, want Stats, lock lockUse, prepare func(s *Store) (onWait func())) {
			t.Run(k.kind+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				rows := filepath.Join(dir, "rows.jsonl")
				var mu sync.Mutex
				var events []TaskState
				opts := Options{Workers: 2, Remote: remote, MetricsJSONL: rows, OnEvent: func(ev TaskEvent) {
					if ev.Kind == k.kind && ev.Key == k.key {
						mu.Lock()
						events = append(events, ev.State)
						mu.Unlock()
					}
				}}
				if remote == nil {
					opts.CacheDir = filepath.Join(dir, "store")
				}
				r := newRunner(t, opts)
				var err error
				var onWait func()
				if prepare != nil {
					onWait = prepare(r.store)
				}
				if onWait != nil {
					waiting := make(chan struct{})
					var once sync.Once
					lockBusy = func() { once.Do(func() { close(waiting) }) } // a waiter finding the lock held
					done := make(chan error, 1)
					go func() { done <- k.run(ctx, r) }()
					<-waiting
					onWait()
					err = <-done
					lockBusy = nil
				} else {
					err = k.run(ctx, r)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}

				got := r.Stats()
				if !lock.allows(got.LockWaitNS) {
					t.Errorf("LockWaitNS = %d where the lock was %s", got.LockWaitNS, lock)
				}
				if captured := want.CkptCaptured > 0; (got.CaptureNS > 0) != captured || (got.WarmInsts > 0) != captured {
					t.Errorf("CaptureNS = %d, WarmInsts = %d, captured: %v", got.CaptureNS, got.WarmInsts, captured)
				}
				if executed := want.Executed > 0; (got.DetailNS > 0) != executed || (got.DetailInsts > 0) != executed {
					t.Errorf("DetailNS = %d, DetailInsts = %d, executed: %v", got.DetailNS, got.DetailInsts, executed)
				}
				got.LockWaitNS, got.CaptureNS, got.WarmInsts, got.DetailNS, got.DetailInsts = 0, 0, 0, 0, 0
				want.Started++
				want.Done++
				if got != want {
					t.Errorf("Stats %+v, want %+v", got, want)
				}
				mu.Lock()
				if !reflect.DeepEqual(events, []TaskState{TaskQueued, TaskRunning, TaskDone}) {
					t.Errorf("events of %s|%s: %v, want queued, running, done", k.kind, k.key, events)
				}
				mu.Unlock()
				if left, _ := filepath.Glob(filepath.Join(dir, "store", "*.lock")); len(left) > 0 {
					t.Errorf("lock files left behind: %v", left)
				}
				if left, _ := filepath.Glob(filepath.Join(dir, "store", "*.tmp")); len(left) > 0 {
					t.Errorf("temp files left behind: %v", left)
				}

				// Only run exports rows, one per local outcome (the profile a
				// fresh analysis runs is a row under its own key).
				var recs []RunRecord
				f, err := os.Open(rows)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				for sc := bufio.NewScanner(f); sc.Scan(); {
					var rec RunRecord
					if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
						t.Fatal(err)
					}
					if rec.Key == k.key {
						recs = append(recs, rec)
					}
				}
				switch {
				case k.kind != kindRun || remote != nil:
					if len(recs) != 0 {
						t.Errorf("%d metrics rows under the key, want none", len(recs))
					}
				case len(recs) != 1:
					t.Errorf("%d metrics rows, want 1", len(recs))
				default:
					rec, hit := recs[0], want.DiskHits == 1
					if rec.Cached != hit || rec.SpecStoreHit != hit || !lock.allows(rec.LockWaitNS) || rec.CkptStoreHit {
						t.Errorf("row cached %v, spec_store_hit %v, lock_wait_ns %d, checkpoint_store_hit %v; want a hit: %v, the lock %s",
							rec.Cached, rec.SpecStoreHit, rec.LockWaitNS, rec.CkptStoreHit, hit, lock)
					}
				}
			})
		}
		plant := func(s *Store) {
			if err := os.WriteFile(s.path(k.kind, k.key), entry, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		if k.delegable {
			cell("delegated", cannedRemote{}, Stats{RemoteRuns: 1}, lockUntouched, nil)
		}
		cell("hit", nil, k.hit, lockUntouched, func(s *Store) func() { plant(s); return nil })
		cell("hit after lock", nil, k.hit, lockWaitedFor, func(s *Store) func() {
			release, _, err := s.Lock(ctx, k.kind, k.key)
			if err != nil {
				t.Fatal(err)
			}
			return func() { plant(s); release() }
		})
		cell("computed", nil, k.fresh, lockTaken, nil)
		cell("publish fails", nil, k.fresh, lockTaken, func(s *Store) func() {
			// A directory at the entry's path: reading it is a miss, the
			// rename onto it fails, the lock file beside it still works.
			if err := os.Mkdir(s.path(k.kind, k.key), 0o755); err != nil {
				t.Fatal(err)
			}
			return nil
		})
	}

	// The order, through a task that looks at its own lock.
	for _, published := range []bool{false, true} {
		name := "probe/computed"
		if published {
			name = "probe/hit after lock"
		}
		t.Run(name, func(t *testing.T) {
			r := newRunner(t, Options{CacheDir: t.TempDir()})
			var steps []string
			step := func(name string, wantHeld bool) {
				steps = append(steps, name)
				if held := r.store.LockHeld("probe", "k"); held != wantHeld {
					t.Errorf("%s: lock held = %v, want %v", name, held, wantHeld)
				}
			}
			loads := 0
			v, err := resolve(ctx, r, task[int]{
				kind: "probe", key: "k",
				load: func() (int, bool) {
					loads++
					step("load", loads == 2)
					return 7, published && loads == 2
				},
				compute: func(context.Context) (int, error) { step("compute", true); return 7, nil },
				save:    func(int) error { step("save", true); return os.ErrPermission },
				observe: func(_ int, hit bool, _ int64) {
					step("observe", true)
					if hit != published {
						t.Errorf("observer told hit = %v, want %v", hit, published)
					}
				},
			})
			if v != 7 || err != nil {
				t.Errorf("resolve = %d, %v; want 7 and a failed publish ignored", v, err)
			}
			want := "load load compute save observe"
			if published {
				want = "load load observe"
			}
			if got := strings.Join(steps, " "); got != want {
				t.Errorf("steps %q, want %q", got, want)
			}
			if r.store.LockHeld("probe", "k") {
				t.Error("lock still held after resolve")
			}
		})
	}
}
