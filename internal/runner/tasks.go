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
func (r *Runner) Submit(spec sim.RunSpec) *RunHandle {
	return submit(r, spec, runTiming(spec).setMemoKey(), r.Run)
}

// SubmitMulti starts a multi-core timing run without waiting.
func (r *Runner) SubmitMulti(spec sim.MultiSpec) *MultiHandle {
	return submit(r, spec, multiTiming(spec).setMemoKey(), r.RunMulti)
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

// timing is a Run or a RunMulti as simulate sees it: one clause per core,
// their configs, the schedule (nil in full detail) and the store kind and
// key of the set a sampled run restores. simulate records the set it
// restored and whether the run joined another spec's simulation.
type timing struct {
	cores           []sim.RunSpec
	cfgs            []sim.Config
	sampling        *sim.Sampling
	setKind, setKey string // "" in full detail
	set             captured
	shared          bool
}

// runTiming is Run's: a one-core set holds every prefetcher variant, warmed
// side by side, per (workload, input, schedule). Its clause carries no
// schedule, as a MultiSpec's clauses do not, so that the set key alone
// tells a sampled Run from the one-core RunMulti of its clause.
func runTiming(spec sim.RunSpec) timing {
	clause := spec
	clause.Sampling = nil
	t := timing{cores: []sim.RunSpec{clause}, sampling: spec.Sampling}
	if spec.Sampling != nil {
		t.setKind, t.setKey = kindCkpt, checkpointKey(spec.Workload, variantOf(spec), *spec.Sampling)
	}
	return t
}

// multiTiming is RunMulti's: a co-run's set is warmed over one shared
// hierarchy for its (workload/input/prefetcher tuple, schedule) alone.
func multiTiming(spec sim.MultiSpec) timing {
	t := timing{cores: spec.Cores, sampling: spec.Sampling}
	if spec.Sampling != nil {
		t.setKind, t.setKey = kindMultiCkpt, multiCheckpointKey(spec)
	}
	return t
}

// setMemoKey is the memo key of t's set ("" in full detail): the key of its
// demand (need) and the prefix of t's simulation key.
func (t timing) setMemoKey() string {
	if t.setKey == "" {
		return ""
	}
	return memoKey(t.setKind, t.setKey)
}

// simulate is the one timing compute path, of Run on one core and RunMulti
// on n. It builds each core's image, resolves a sampled run's set, and
// joins the simulation keyed by the set's memo key and each core's
// sim.RunSpec.SimKey: specs that differ only in what the simulation cannot
// see share one run — a co-run whose CRISP core tags nothing with the OOO
// co-run, a full-detail Run with the one-core RunMulti of its clause — and
// each stores the result under its own key. The simulation is a task of
// its own, out of sight of Stats and OnEvent: whoever reaches its key
// first runs it, and only that spec adds its host time.
func (r *Runner) simulate(ctx context.Context, t *timing) (*sim.MultiResult, error) {
	imgs := make([]*sim.Image, len(t.cores))
	progs := make([]*program.Program, len(t.cores))
	simKey := t.setMemoKey()
	for i, cs := range t.cores {
		img, err := r.image(ctx, cs, t.sampling)
		if err != nil {
			return nil, err
		}
		imgs[i], progs[i] = img, img.Prog
		simKey += "|" + cs.SimKey(img.Prog)
	}
	if t.sampling != nil {
		var err error
		if t.set, err = r.checkpointSet(ctx, t); err != nil {
			return nil, err
		}
	}
	ran := false
	v, err := r.do(ctx, memoKey(kindSim, simKey), false, func(ctx context.Context) (any, error) {
		ran = true
		if t.sampling != nil {
			return sim.RunMultiSampledContext(ctx, t.set.set, progs, t.cfgs, *t.sampling)
		}
		return sim.RunMultiContext(ctx, imgs, t.cfgs)
	})
	if err != nil {
		return nil, err
	}
	res := v.(*sim.MultiResult)
	r.executed.Add(1)
	if t.shared = !ran; t.shared {
		r.shared.Add(1)
	} else {
		r.detailNS.Add(res.HostNS)
		for _, c := range res.Cores {
			r.detailInsts.Add(int64(c.Insts))
		}
	}
	return res, nil
}

// Run resolves a timing spec to its result, executing the simulation at
// most once per content key across all concurrent callers and processes
// sharing the persistent cache — and, within a process, once per
// simulation key (simulate). It is simulate's one-core co-run; what it
// keeps of its own is core 0's result and the -metrics row.
func (r *Runner) Run(ctx context.Context, spec sim.RunSpec) (*core.Result, error) {
	tm := runTiming(spec)
	defer r.need(tm.setMemoKey())()
	key := spec.Key()
	return memo(ctx, r, kindRun, key, func(ctx context.Context) (*core.Result, error) {
		if _, err := resolveWorkload(spec.Workload); err != nil {
			return nil, err
		}
		cfg, err := spec.Config()
		if err != nil {
			return nil, err
		}
		tm.cfgs = []sim.Config{cfg}
		t := jsonTask[core.Result](r, kindRun, key)
		t.delegate = func(ctx context.Context, rm Remote) (*core.Result, error) { return rm.Run(ctx, spec) }
		t.compute = func(ctx context.Context) (*core.Result, error) {
			m, err := r.simulate(ctx, &tm)
			if err != nil {
				return nil, err
			}
			return m.Cores[0], nil
		}
		t.observe = func(res *core.Result, hit bool, lockNS int64) {
			rec := newRunRecord(spec, res, hit)
			rec.LockWaitNS = lockNS
			if !hit {
				rec.Shared = tm.shared
				rec.CkptStoreHit = tm.set.fromStore
				rec.CaptureNS, rec.WarmInsts = tm.set.stats.claim()
			}
			r.sink.record(rec)
		}
		return resolve(ctx, r, t)
	})
}

// RunMulti resolves a multi-core co-location spec to its result with
// Run's discipline: simulate on n cores, whose runs it shares with Run and
// other co-runs. Only Run exports metrics rows.
func (r *Runner) RunMulti(ctx context.Context, spec sim.MultiSpec) (*sim.MultiResult, error) {
	tm := multiTiming(spec)
	defer r.need(tm.setMemoKey())()
	key := spec.Key()
	return memo(ctx, r, kindMulti, key, func(ctx context.Context) (*sim.MultiResult, error) {
		cfgs, err := spec.Configs() // validates the spec as a side effect
		if err != nil {
			return nil, err
		}
		tm.cfgs = cfgs
		t := jsonTask[sim.MultiResult](r, kindMulti, key)
		t.delegate = func(ctx context.Context, rm Remote) (*sim.MultiResult, error) { return rm.RunMulti(ctx, spec) }
		t.compute = func(ctx context.Context) (*sim.MultiResult, error) { return r.simulate(ctx, &tm) }
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

// trace memoizes the train-input trace capture per (workload, budget),
// for the runner's life: every option set's analysis and footprint over
// that budget reads it. A trace keeps about 2.5 B per instruction (4.5 MB
// at 1.8M) and is cheap to recapture, so it lives in memory only; the
// analyses and footprints derived from it are what the disk cache
// persists.
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

// checkpointSet resolves the checkpoint set t's sampled windows restore
// from: the cross-config sharing at the heart of sampling. The capture
// warms untagged images — tags change neither functional behaviour nor
// instruction positions — so every scheduler config of the same workloads
// shares the set. Within a process a set is memoized while runs need it;
// across processes it persists under the set codec, so a second process
// decodes the warmed state and skips the functional fast-forward. A stored
// set is a delta over the images its workloads build, and enters the memo
// only attached to them. One that refuses them (a kernel edited without a
// CodeVersion bump) is as useless as a corrupt one: delete it and
// recapture. A cancelled capture returns the context's error and publishes
// nothing. t's workloads are known: simulate built their images first.
func (r *Runner) checkpointSet(ctx context.Context, t *timing) (captured, error) {
	kind, key := t.setKind, t.setKey
	return memo(ctx, r, kind, key, func(ctx context.Context) (captured, error) {
		build := func() []*sim.Image {
			imgs := make([]*sim.Image, len(t.cores))
			for i, cs := range t.cores {
				imgs[i] = workload.ByName(cs.Workload).Build(variantOf(cs))
			}
			return imgs
		}
		return resolve(ctx, r, task[captured]{
			kind: kind, key: key,
			load: func() (captured, bool) {
				set, ok := r.store.getSet(kind, key)
				if !ok {
					return captured{}, false
				}
				mems := make([]*emu.Memory, len(t.cores))
				for i, img := range build() {
					mems[i] = img.Mem
				}
				if set.Attach(mems...) != nil {
					r.store.Delete(kind, key)
					return captured{}, false
				}
				r.ckptDiskHits.Add(1)
				return captured{set: set, fromStore: true}, true
			},
			compute: func(ctx context.Context) (captured, error) {
				var set *checkpoint.Set
				var err error
				if kind == kindCkpt {
					set, err = sim.CaptureCheckpointsContext(ctx, build()[0], sim.DefaultConfig(), *t.sampling)
				} else {
					set, err = sim.CaptureMultiCheckpointsContext(ctx, build(), t.cfgs, *t.sampling)
				}
				if err != nil {
					return captured{}, err
				}
				r.ckptCaptured.Add(1)
				r.captureNS.Add(set.HostNS)
				r.warmInsts.Add(int64(set.WarmInsts))
				return captured{set: set, stats: &captureStats{captureNS: set.HostNS, warmInsts: set.WarmInsts}}, nil
			},
			save: func(c captured) error { return r.store.putSet(kind, key, c.set) },
		})
	})
}
