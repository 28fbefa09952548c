package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"

	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/emu"
	"crisp/internal/program"
	"crisp/internal/sim"
	"crisp/internal/trace"
	"crisp/internal/workload"
)

// resolveWorkload looks up a workload name, returning an error that
// enumerates the known names on a miss (so a typo in -only or -workload
// fails with guidance instead of a nil-pointer panic in a goroutine).
func resolveWorkload(name string) (*workload.Workload, error) {
	if w := workload.ByName(name); w != nil {
		return w, nil
	}
	return nil, fmt.Errorf("runner: unknown workload %q (known: %s)",
		name, strings.Join(workload.Names(), ", "))
}

// ValidateWorkloads checks a list of workload names, for flag validation
// before any job is submitted.
func ValidateWorkloads(names []string) error {
	for _, n := range names {
		if _, err := resolveWorkload(n); err != nil {
			return err
		}
	}
	return nil
}

// ------------------------------------------------- the publish protocol

// task is what one persisted task family supplies to resolve: where its
// entry lives and how to load, compute and publish it.
type task[T any] struct {
	kind, key string
	// delegate, set by the four kinds a crispd server accepts, resolves
	// the whole task on a Remote.
	delegate func(context.Context, Remote) (T, error)
	// load reads the published entry, counting a hit; it runs once before
	// the lock and once under it.
	load    func() (T, bool)
	compute func(context.Context) (T, error)
	save    func(T) error
	// observe, when set, sees every local outcome with the time the task
	// blocked on its lock (0 for a first-load hit): run's metrics row.
	observe func(v T, hit bool, lockNS int64)
}

// resolve is the one way a persisted task reaches its value, inside the
// task's memo entry (memo; resolve adds none of its own). A runner with a
// Remote delegates the delegable kinds whole: the server owns the store,
// the locks and the dedup. Otherwise: a published entry is a hit; on a
// miss the task takes its cross-process file lock and looks again — a
// process that lost the race blocked in lockTask and now finds the
// winner's entry — and only then computes. The lock is held across
// compute-and-publish, so processes sharing a store run each spec and
// fast-forward each schedule once between them, not once each. A failed
// publish is ignored: it only costs the next process a recompute.
func resolve[T any](ctx context.Context, r *Runner, t task[T]) (T, error) {
	var zero T
	if r.remote != nil && t.delegate != nil {
		v, err := t.delegate(ctx, r.remote)
		if err != nil {
			return zero, err
		}
		r.remoteRuns.Add(1)
		return v, nil
	}
	observe := t.observe
	if observe == nil {
		observe = func(T, bool, int64) {}
	}
	if v, ok := t.load(); ok {
		observe(v, true, 0)
		return v, nil
	}
	unlock, lockNS, err := r.lockTask(ctx, t.kind, t.key)
	if err != nil {
		return zero, err
	}
	defer unlock()
	if v, ok := t.load(); ok {
		observe(v, true, lockNS)
		return v, nil
	}
	v, err := t.compute(ctx)
	if err != nil {
		return zero, err
	}
	_ = t.save(v)
	observe(v, false, lockNS)
	return v, nil
}

// memoKey names the single-flight task kind|key in the memo table.
func memoKey(kind, key string) string { return kind + "|" + key }

// memo runs fn as the single-flight task kind|key (see do), typed.
func memo[T any](ctx context.Context, r *Runner, kind, key string, fn func(context.Context) (T, error)) (T, error) {
	v, err := r.do(ctx, memoKey(kind, key), true, func(ctx context.Context) (any, error) { return fn(ctx) })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// jsonTask is the load/save half of the four kinds stored as JSON.
func jsonTask[T any](r *Runner, kind, key string) task[*T] {
	return task[*T]{
		kind: kind, key: key,
		load: func() (*T, bool) {
			var v T
			if !r.store.Get(kind, key, &v) {
				return nil, false
			}
			r.diskHits.Add(1)
			return &v, true
		},
		save: func(v *T) error { return r.store.Put(kind, key, v) },
	}
}

// Handle is a submitted task: Result joins the in-flight (or finished)
// computation.
type Handle[S, T any] struct {
	Spec   S
	result func(context.Context, S) (*T, error)
}

// Result blocks until the task resolves.
func (h *Handle[S, T]) Result(ctx context.Context) (*T, error) { return h.result(ctx, h.Spec) }

// The handles of the four submittable kinds.
type (
	RunHandle       = Handle[sim.RunSpec, core.Result]
	MultiHandle     = Handle[sim.MultiSpec, sim.MultiResult]
	AnalysisHandle  = Handle[AnalysisSpec, crisp.Analysis]
	FootprintHandle = Handle[AnalysisSpec, crisp.Footprint]
)

// submit starts result(spec) on the pool under the runner's base context
// without waiting; the handle's Result joins it through the memo table.
// The demand for the set under setKey (need) starts before the goroutine.
func submit[S, T any](r *Runner, spec S, setKey string, result func(context.Context, S) (*T, error)) *Handle[S, T] {
	done := r.need(setKey)
	go func() {
		defer done()
		result(r.ctx, spec) //nolint:errcheck // result observed via the memo table
	}()
	return &Handle[S, T]{Spec: spec, result: result}
}

// Submit starts a timing run without waiting.
func (r *Runner) Submit(spec sim.RunSpec) *RunHandle { return submit(r, spec, runSetKey(spec), r.Run) }

// SubmitMulti starts a multi-core timing run without waiting.
func (r *Runner) SubmitMulti(spec sim.MultiSpec) *MultiHandle {
	return submit(r, spec, multiSetKey(spec), r.RunMulti)
}

// SubmitAnalysis starts the software pipeline without waiting.
func (r *Runner) SubmitAnalysis(spec AnalysisSpec) *AnalysisHandle {
	return submit(r, spec, "", r.Analysis)
}

// SubmitFootprint starts the footprint measurement without waiting.
func (r *Runner) SubmitFootprint(spec AnalysisSpec) *FootprintHandle {
	return submit(r, spec, "", r.Footprint)
}

// ---------------------------------------------------------- timing runs

// variantOf maps a clause's input to the workload variant it builds.
func variantOf(cs sim.RunSpec) workload.Variant {
	if cs.Input == sim.InputTrain {
		return workload.Train
	}
	return workload.Ref
}

// image resolves one clause — a RunSpec, or one core of a MultiSpec — to
// the image it simulates. A CRISP clause runs the (deduped, disk-cached)
// software pipeline first and gets its program tagged, so a colocate
// sweep shares analyses with the single-core figures. Sampled specs
// carry no Insts; the analysis window then matches the budget the
// sampling schedule covers.
func (r *Runner) image(ctx context.Context, cs sim.RunSpec, s *sim.Sampling) (*sim.Image, error) {
	w, err := resolveWorkload(cs.Workload)
	if err != nil {
		return nil, err
	}
	var a *crisp.Analysis
	if cs.Crisp != nil {
		budget := cs.Insts
		if s != nil {
			budget = s.Total()
		}
		a, err = r.Analysis(ctx, AnalysisSpec{Workload: cs.Workload, Insts: budget, Opts: *cs.Crisp})
		if err != nil {
			return nil, err
		}
	}
	img := w.Build(variantOf(cs))
	if a != nil {
		img.Prog = a.Apply(img.Prog)
	}
	return img, nil
}

// Run resolves a timing spec to its result, executing the simulation at
// most once per content key across all concurrent callers and processes
// sharing the persistent cache — and, within a process, once per
// simulation key (sim.RunSpec.SimKey): specs that differ only in what the
// simulation cannot see share one run, each storing the result under its
// own key.
func (r *Runner) Run(ctx context.Context, spec sim.RunSpec) (*core.Result, error) {
	defer r.need(runSetKey(spec))()
	key := spec.Key()
	return memo(ctx, r, kindRun, key, func(ctx context.Context) (*core.Result, error) {
		if _, err := resolveWorkload(spec.Workload); err != nil {
			return nil, err
		}
		cfg, err := spec.Config()
		if err != nil {
			return nil, err
		}
		var ckpt captured
		var shared bool
		t := jsonTask[core.Result](r, kindRun, key)
		t.delegate = func(ctx context.Context, rm Remote) (*core.Result, error) { return rm.Run(ctx, spec) }
		t.compute = func(ctx context.Context) (*core.Result, error) {
			img, err := r.image(ctx, spec, spec.Sampling)
			if err != nil {
				return nil, err
			}
			if spec.Sampling != nil {
				// Every config sharing (workload, input, schedule) restores
				// from one memoized checkpoint set: the functional prefix runs
				// once per set, not once per config. Critical tags change
				// neither functional behaviour nor instruction positions, so
				// untagged checkpoints serve tagged programs.
				if ckpt, err = r.checkpointSet(ctx, spec, *spec.Sampling); err != nil {
					return nil, err
				}
			}
			// The simulation is a task of its own, out of sight of Stats and
			// OnEvent: whoever reaches a simulation key first runs it.
			ran := false
			res, err := r.do(ctx, kindSim+"|"+spec.SimKey(img.Prog), false, func(ctx context.Context) (any, error) {
				ran = true
				if spec.Sampling != nil {
					return sim.RunSampledContext(ctx, ckpt.set, img.Prog, cfg, *spec.Sampling)
				}
				return sim.RunContext(ctx, img, cfg)
			})
			if err != nil {
				return nil, err
			}
			r.executed.Add(1)
			out := res.(*core.Result)
			// Only the spec that ran the simulation adds its host time.
			if shared = !ran; shared {
				r.shared.Add(1)
			} else {
				r.detailNS.Add(out.HostNS)
				r.detailInsts.Add(int64(out.Insts))
			}
			return out, nil
		}
		t.observe = func(res *core.Result, hit bool, lockNS int64) {
			rec := newRunRecord(spec, res, hit)
			rec.LockWaitNS = lockNS
			if !hit {
				rec.Shared = shared
				rec.CkptStoreHit = ckpt.fromStore
				rec.CaptureNS, rec.WarmInsts = ckpt.stats.claim()
			}
			r.sink.record(rec)
		}
		return resolve(ctx, r, t)
	})
}

// RunMulti resolves a multi-core co-location spec to its result with
// Run's discipline. Only Run exports metrics rows.
func (r *Runner) RunMulti(ctx context.Context, spec sim.MultiSpec) (*sim.MultiResult, error) {
	defer r.need(multiSetKey(spec))()
	key := spec.Key()
	return memo(ctx, r, kindMulti, key, func(ctx context.Context) (*sim.MultiResult, error) {
		cfgs, err := spec.Configs() // validates the spec as a side effect
		if err != nil {
			return nil, err
		}
		t := jsonTask[sim.MultiResult](r, kindMulti, key)
		t.delegate = func(ctx context.Context, rm Remote) (*sim.MultiResult, error) { return rm.RunMulti(ctx, spec) }
		t.compute = func(ctx context.Context) (*sim.MultiResult, error) {
			imgs := make([]*sim.Image, len(spec.Cores))
			for i, cs := range spec.Cores {
				img, err := r.image(ctx, cs, spec.Sampling)
				if err != nil {
					return nil, err
				}
				imgs[i] = img
			}
			var res *sim.MultiResult
			var err error
			if spec.Sampling != nil {
				// One capture per workload/schedule/prefetcher tuple, shared
				// by every scheduler config and every process on the store;
				// the detailed lockstep windows run over the tagged programs.
				var set captured
				if set, err = r.multiCheckpointSet(ctx, spec, cfgs); err != nil {
					return nil, err
				}
				progs := make([]*program.Program, len(imgs))
				for i := range imgs {
					progs[i] = imgs[i].Prog
				}
				res, err = sim.RunMultiSampledContext(ctx, set.set, progs, cfgs, *spec.Sampling)
			} else {
				res, err = sim.RunMultiContext(ctx, imgs, cfgs)
			}
			if err != nil {
				return nil, err
			}
			r.executed.Add(1)
			r.detailNS.Add(res.HostNS)
			for _, c := range res.Cores {
				r.detailInsts.Add(int64(c.Insts))
			}
			return res, nil
		}
		return resolve(ctx, r, t)
	})
}

// ------------------------------------------------- software pipeline

// AnalysisSpec is a pure-data description of one CRISP software-pipeline
// invocation: profile + trace the workload's train input at the given
// budget, then classify, slice and filter under Opts.
type AnalysisSpec struct {
	Workload string        `json:"workload"`
	Insts    uint64        `json:"insts"`
	Opts     crisp.Options `json:"opts"`
}

// Key returns the spec's deterministic content key (see sim.RunSpec.Key).
func (s AnalysisSpec) Key() string {
	b, err := json.Marshal(s)
	if err != nil { // unreachable: AnalysisSpec is plain data
		panic(fmt.Sprintf("runner: marshal AnalysisSpec: %v", err))
	}
	return hashKey(sim.CodeVersion + "|analysis|" + string(b))
}

// Validate reports spec-level errors a remote submission must reject
// before any work starts: a missing workload name (existence is checked
// by the executor, which owns the registry), a zero instruction budget,
// which would profile to Halt — and the workload kernels never halt, they
// run until a budget stops them — or pipeline options out of range.
func (s AnalysisSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("runner: AnalysisSpec has no workload")
	}
	if s.Insts == 0 {
		return fmt.Errorf("runner: AnalysisSpec has no instruction budget (the profiling run would never halt)")
	}
	return s.Opts.Validate()
}

// DecodeAnalysisSpec strictly decodes and validates a JSON AnalysisSpec
// off the wire (see sim.DecodeStrict); the decoded spec's Key equals the
// Key of the spec that was marshalled.
func DecodeAnalysisSpec(data []byte) (AnalysisSpec, error) {
	var s AnalysisSpec
	if err := sim.DecodeStrict(data, &s); err != nil {
		return AnalysisSpec{}, fmt.Errorf("decode AnalysisSpec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return AnalysisSpec{}, err
	}
	return s, nil
}

// pipelineTask is what Analysis and Footprint share: both are keyed by an
// AnalysisSpec, reject an unknown workload before delegating, and on a
// miss resolve one dependency task, then the train trace, and compute
// from the two over the train program.
func pipelineTask[D, T any](ctx context.Context, r *Runner, kind string, spec AnalysisSpec,
	delegate func(context.Context, Remote) (*T, error),
	dep func(context.Context) (D, error),
	compute func(dep D, tr *trace.Trace, prog *program.Program) *T) (*T, error) {
	key := spec.Key()
	return memo(ctx, r, kind, key, func(ctx context.Context) (*T, error) {
		w, err := resolveWorkload(spec.Workload)
		if err != nil {
			return nil, err
		}
		t := jsonTask[T](r, kind, key)
		t.delegate = delegate
		t.compute = func(ctx context.Context) (*T, error) {
			d, err := dep(ctx)
			if err != nil {
				return nil, err
			}
			tr, err := r.trace(ctx, spec.Workload, spec.Insts)
			if err != nil {
				return nil, err
			}
			return compute(d, tr, w.Build(workload.Train).Prog), nil
		}
		return resolve(ctx, r, t)
	})
}

// Analysis resolves the CRISP software pipeline for a spec. The train
// profiling run is a regular timing job (deduped and disk-cached like
// any other); the trace is memoized in memory; the resulting Analysis is
// also persisted, so cache-warm sweeps skip the pipeline entirely.
func (r *Runner) Analysis(ctx context.Context, spec AnalysisSpec) (*crisp.Analysis, error) {
	return pipelineTask(ctx, r, kindAnalysis, spec,
		func(ctx context.Context, rm Remote) (*crisp.Analysis, error) { return rm.Analysis(ctx, spec) },
		func(ctx context.Context) (*core.Result, error) {
			return r.Run(ctx, sim.RunSpec{Workload: spec.Workload, Input: sim.InputTrain, Insts: spec.Insts})
		},
		func(prof *core.Result, tr *trace.Trace, prog *program.Program) *crisp.Analysis {
			return crisp.Analyze(prof, tr, prog, spec.Opts)
		})
}

// Footprint resolves the Figure 12 code-size metrics for an analysis.
func (r *Runner) Footprint(ctx context.Context, spec AnalysisSpec) (*crisp.Footprint, error) {
	return pipelineTask(ctx, r, kindFootprint, spec,
		func(ctx context.Context, rm Remote) (*crisp.Footprint, error) { return rm.Footprint(ctx, spec) },
		func(ctx context.Context) (*crisp.Analysis, error) { return r.Analysis(ctx, spec) },
		func(a *crisp.Analysis, tr *trace.Trace, prog *program.Program) *crisp.Footprint {
			fp := crisp.MeasureFootprint(prog, tr, a.CriticalPCs)
			return &fp
		})
}

// trace memoizes the train-input trace capture per (workload, budget).
// Traces are large, so they live in memory only; the analyses and
// footprints derived from them are what the disk cache persists.
func (r *Runner) trace(ctx context.Context, name string, insts uint64) (*trace.Trace, error) {
	return memo(ctx, r, "trace", fmt.Sprintf("%s|%d", name, insts), func(context.Context) (*trace.Trace, error) {
		w, err := resolveWorkload(name)
		if err != nil {
			return nil, err
		}
		return sim.CaptureTrace(w.Build(workload.Train), insts), nil
	})
}

// ------------------------------------------------------ checkpoint sets

// captured carries a resolved checkpoint set through the memo table
// along with whether it was loaded from the persistent store (fed into
// per-run metrics) rather than captured by fast-forwarding, and — for a
// fresh capture — its claim-once cost record.
type captured struct {
	set       *checkpoint.Set
	fromStore bool
	stats     *captureStats // nil unless this process ran the capture
}

// captureStats is the host cost of one fresh capture. The memo table
// hands the same captured value to every run sharing the set, so the
// record is claimed exactly once: the first run to read it exports the
// cost in its metrics row and later sharers export zero, keeping column
// sums equal to the aggregate Stats counters.
type captureStats struct {
	captureNS int64
	warmInsts uint64
	claimed   atomic.Bool
}

// claim returns the capture cost the first time it is called and zeros
// afterwards (or on a nil receiver, i.e. a store hit).
func (cs *captureStats) claim() (int64, uint64) {
	if cs == nil || !cs.claimed.CompareAndSwap(false, true) {
		return 0, 0
	}
	return cs.captureNS, cs.warmInsts
}

// setTask is the task of the two checkpoint-set kinds. Within a process
// a set is memoized while runs need it; across processes it persists
// under the set codec, so a second process (or a re-run) decodes the
// warmed state and skips the functional fast-forward. A stored set is a delta over the images its
// workloads build (images), and enters the memo only attached to them.
// One that refuses them (a kernel edited without a CodeVersion bump) is
// as useless as a corrupt one: delete it and recapture. Captures honour
// cancellation: a cancelled capture returns the context's error without
// publishing a store entry.
func setTask(r *Runner, kind, key string, images func() []*emu.Memory, capture func(context.Context) (*checkpoint.Set, error)) task[captured] {
	return task[captured]{
		kind: kind, key: key,
		load: func() (captured, bool) {
			set, ok := r.store.getSet(kind, key)
			if !ok {
				return captured{}, false
			}
			if set.Attach(images()...) != nil {
				r.store.Delete(kind, key)
				return captured{}, false
			}
			r.ckptDiskHits.Add(1)
			return captured{set: set, fromStore: true}, true
		},
		compute: func(ctx context.Context) (captured, error) {
			set, err := capture(ctx)
			if err != nil {
				return captured{}, err
			}
			r.ckptCaptured.Add(1)
			r.captureNS.Add(set.HostNS)
			r.warmInsts.Add(int64(set.WarmInsts))
			return captured{set: set, stats: &captureStats{captureNS: set.HostNS, warmInsts: set.WarmInsts}}, nil
		},
		save: func(c captured) error { return r.store.putSet(kind, key, c.set) },
	}
}

// geometryKey is the part of a checkpoint key that names the warmed
// cache geometry and front-end structure sizes.
func geometryKey() string {
	cfg := sim.DefaultConfig()
	hier, err := json.Marshal(cfg.Hier)
	if err != nil { // unreachable: HierConfig is plain data
		panic(fmt.Sprintf("runner: marshal HierConfig: %v", err))
	}
	return fmt.Sprintf("|btb=%d/%d|ras=%d|hier=%s", cfg.Core.BTBEntries, cfg.Core.BTBWays, cfg.Core.RASEntries, hier)
}

func hashKey(msg string) string {
	h := sha256.Sum256([]byte(msg))
	return hex.EncodeToString(h[:16])
}

// checkpointKey is the content key a checkpoint set persists under. It
// hashes everything that shapes a capture — code version, workload,
// input variant, schedule, warmed cache geometry and front-end
// structure sizes — so a simulator or configuration change misses every
// stale file instead of restoring wrong state.
func checkpointKey(name string, variant workload.Variant, s sim.Sampling) string {
	return hashKey(fmt.Sprintf("%s|ckpt|%s|%d|%d|%d|%d|%d", sim.CodeVersion, name, variant, s.Skip, s.Warm, s.Window, s.Count) + geometryKey())
}

// runSetKey is the memo key of checkpointSet for spec, "" if it is not sampled.
func runSetKey(spec sim.RunSpec) string {
	if spec.Sampling == nil {
		return ""
	}
	return memoKey(kindCkpt, checkpointKey(spec.Workload, variantOf(spec), *spec.Sampling))
}

// checkpointSet resolves the sampled-simulation checkpoint capture per
// (workload, variant, schedule): the cross-config sharing at the heart
// of sampling.
func (r *Runner) checkpointSet(ctx context.Context, cs sim.RunSpec, s sim.Sampling) (captured, error) {
	key := checkpointKey(cs.Workload, variantOf(cs), s)
	return memo(ctx, r, kindCkpt, key, func(ctx context.Context) (captured, error) {
		w, err := resolveWorkload(cs.Workload)
		if err != nil {
			return captured{}, err
		}
		return resolve(ctx, r, setTask(r, kindCkpt, key,
			func() []*emu.Memory { return []*emu.Memory{w.Build(variantOf(cs)).Mem} },
			func(ctx context.Context) (*checkpoint.Set, error) {
				return sim.CaptureCheckpointsContext(ctx, w.Build(variantOf(cs)), sim.DefaultConfig(), s)
			}))
	})
}

// multiCheckpointKey is the content key a co-scheduled checkpoint set
// persists under. Beyond the single-core key's inputs (code version,
// schedule, warmed geometry, front-end sizes) it hashes the ordered
// per-core workload/input/prefetcher tuple: core order fixes requester
// indices and address-space slices, and the prefetcher tuple shapes the
// shared LLC's warmed occupancy, so any of them changing must miss.
func multiCheckpointKey(spec sim.MultiSpec) string {
	s := spec.Sampling
	var b strings.Builder
	fmt.Fprintf(&b, "%s|mckpt|%d|%d|%d|%d", sim.CodeVersion, s.Skip, s.Warm, s.Window, s.Count)
	for _, cs := range spec.Cores {
		fmt.Fprintf(&b, "|core=%s/%d/pf=%s", cs.Workload, variantOf(cs), cs.Prefetcher.String())
	}
	return hashKey(b.String() + geometryKey())
}

// multiSetKey is the memo key of multiCheckpointSet for spec, "" if it is not sampled.
func multiSetKey(spec sim.MultiSpec) string {
	if spec.Sampling == nil {
		return ""
	}
	return memoKey(kindMultiCkpt, multiCheckpointKey(spec))
}

// multiCheckpointSet resolves the co-scheduled checkpoint capture for a
// sampled MultiSpec. The capture warms untagged images — tags do not
// change functional behaviour, so every CRISP/OOO scheduler config of
// the same workload tuple shares the set.
func (r *Runner) multiCheckpointSet(ctx context.Context, spec sim.MultiSpec, cfgs []sim.Config) (captured, error) {
	key := multiCheckpointKey(spec)
	return memo(ctx, r, kindMultiCkpt, key, func(ctx context.Context) (captured, error) {
		ws := make([]*workload.Workload, len(spec.Cores))
		for i, cs := range spec.Cores {
			w, err := resolveWorkload(cs.Workload)
			if err != nil {
				return captured{}, err
			}
			ws[i] = w
		}
		build := func() []*sim.Image {
			imgs := make([]*sim.Image, len(ws))
			for i, w := range ws {
				imgs[i] = w.Build(variantOf(spec.Cores[i]))
			}
			return imgs
		}
		return resolve(ctx, r, setTask(r, kindMultiCkpt, key,
			func() []*emu.Memory {
				imgs := build()
				mems := make([]*emu.Memory, len(imgs))
				for i, img := range imgs {
					mems[i] = img.Mem
				}
				return mems
			},
			func(ctx context.Context) (*checkpoint.Set, error) {
				return sim.CaptureMultiCheckpointsContext(ctx, build(), cfgs, *spec.Sampling)
			}))
	})
}
