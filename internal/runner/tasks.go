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

// ---------------------------------------------------------- timing runs

// Run resolves a timing spec to its result, executing the simulation at
// most once per content key across all concurrent callers and processes
// sharing the persistent cache.
func (r *Runner) Run(ctx context.Context, spec sim.RunSpec) (*core.Result, error) {
	v, err := r.do(ctx, "run|"+spec.Key(), r.runTask(spec))
	if err != nil {
		return nil, err
	}
	return v.(*core.Result), nil
}

// Submit starts spec on the pool without waiting and returns a handle
// whose Result joins the in-flight (or finished) computation.
func (r *Runner) Submit(spec sim.RunSpec) *RunHandle {
	r.background("run|"+spec.Key(), r.runTask(spec))
	return &RunHandle{r: r, Spec: spec}
}

// RunHandle is a submitted timing run.
type RunHandle struct {
	r    *Runner
	Spec sim.RunSpec
}

// Result blocks until the run resolves.
func (h *RunHandle) Result(ctx context.Context) (*core.Result, error) {
	return h.r.Run(ctx, h.Spec)
}

func (r *Runner) runTask(spec sim.RunSpec) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		w, err := resolveWorkload(spec.Workload)
		if err != nil {
			return nil, err
		}
		cfg, err := spec.Config()
		if err != nil {
			return nil, err
		}
		if r.remote != nil {
			res, err := r.remote.Run(ctx, spec)
			if err != nil {
				return nil, err
			}
			r.remoteRuns.Add(1)
			return res, nil
		}
		key := spec.Key()
		var cached core.Result
		if r.store.Get(kindRun, key, &cached) {
			r.diskHits.Add(1)
			r.sink.record(newRunRecord(spec, &cached, true))
			return &cached, nil
		}
		// Cross-process single-flight: hold the spec's file lock across
		// compute-and-publish. A process losing the race blocks here,
		// then finds the winner's entry on the re-check.
		unlock, lockNS, err := r.lockTask(ctx, kindRun, key)
		if err != nil {
			return nil, err
		}
		defer unlock()
		if r.store.Get(kindRun, key, &cached) {
			r.diskHits.Add(1)
			rec := newRunRecord(spec, &cached, true)
			rec.LockWaitNS = lockNS
			r.sink.record(rec)
			return &cached, nil
		}
		var a *crisp.Analysis
		if spec.Crisp != nil {
			// Sampled specs carry no Insts; the analysis window matches the
			// budget the sampling schedule covers.
			budget := spec.Insts
			if spec.Sampling != nil {
				budget = spec.Sampling.Total()
			}
			a, err = r.Analysis(ctx, AnalysisSpec{Workload: spec.Workload, Insts: budget, Opts: *spec.Crisp})
			if err != nil {
				return nil, err
			}
		}
		variant := workload.Ref
		if spec.Input == sim.InputTrain {
			variant = workload.Train
		}
		img := w.Build(variant)
		if a != nil {
			img.Prog = a.Apply(img.Prog)
		}
		var res *core.Result
		var ckpt ckptResult
		if spec.Sampling != nil {
			// Every config sharing (workload, input, schedule) restores
			// from one memoized checkpoint set: the functional prefix runs
			// once per set, not once per config. Critical tags change
			// neither functional behaviour nor instruction positions, so
			// untagged checkpoints serve tagged programs.
			var set *checkpoint.Set
			var cerr error
			set, ckpt, cerr = r.checkpointSet(ctx, spec.Workload, variant, *spec.Sampling)
			if cerr != nil {
				return nil, cerr
			}
			res, err = sim.RunSampledContext(r.simCtx(ctx), set, img.Prog, cfg, *spec.Sampling)
		} else {
			res, err = sim.RunContext(ctx, img, cfg)
		}
		if err != nil {
			return nil, err
		}
		r.executed.Add(1)
		// Cache-write failures only cost a future re-simulation.
		_ = r.store.Put(kindRun, key, res)
		rec := newRunRecord(spec, res, false)
		rec.CkptStoreHit = ckpt.fromStore
		rec.CaptureNS, rec.WarmInsts = ckpt.stats.claim()
		rec.LockWaitNS = lockNS
		r.sink.record(rec)
		return res, nil
	}
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
	h := sha256.Sum256(append([]byte(sim.CodeVersion+"|analysis|"), b...))
	return hex.EncodeToString(h[:16])
}

// Validate reports spec-level errors a remote submission must reject
// before any work starts: a missing workload name (existence is checked
// by the executor, which owns the registry) or a zero instruction
// budget, which would profile to Halt — and the workload kernels never
// halt, they run until a budget stops them.
func (s AnalysisSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("runner: AnalysisSpec has no workload")
	}
	if s.Insts == 0 {
		return fmt.Errorf("runner: AnalysisSpec has no instruction budget (the profiling run would never halt)")
	}
	return nil
}

// Analysis resolves the CRISP software pipeline for a spec. The train
// profiling run is a regular timing job (deduped and disk-cached like
// any other); the trace is memoized in memory; the resulting Analysis is
// also persisted, so cache-warm sweeps skip the pipeline entirely.
func (r *Runner) Analysis(ctx context.Context, spec AnalysisSpec) (*crisp.Analysis, error) {
	v, err := r.do(ctx, "analysis|"+spec.Key(), r.analysisTask(spec))
	if err != nil {
		return nil, err
	}
	return v.(*crisp.Analysis), nil
}

// SubmitAnalysis starts the pipeline without waiting.
func (r *Runner) SubmitAnalysis(spec AnalysisSpec) *AnalysisHandle {
	r.background("analysis|"+spec.Key(), r.analysisTask(spec))
	return &AnalysisHandle{r: r, Spec: spec}
}

// AnalysisHandle is a submitted software-pipeline job.
type AnalysisHandle struct {
	r    *Runner
	Spec AnalysisSpec
}

// Result blocks until the analysis resolves.
func (h *AnalysisHandle) Result(ctx context.Context) (*crisp.Analysis, error) {
	return h.r.Analysis(ctx, h.Spec)
}

func (r *Runner) analysisTask(spec AnalysisSpec) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		w, err := resolveWorkload(spec.Workload)
		if err != nil {
			return nil, err
		}
		if r.remote != nil {
			a, err := r.remote.Analysis(ctx, spec)
			if err != nil {
				return nil, err
			}
			r.remoteRuns.Add(1)
			return a, nil
		}
		var cached crisp.Analysis
		if r.store.Get(kindAnalysis, spec.Key(), &cached) {
			r.diskHits.Add(1)
			return &cached, nil
		}
		unlock, _, err := r.lockTask(ctx, kindAnalysis, spec.Key())
		if err != nil {
			return nil, err
		}
		defer unlock()
		if r.store.Get(kindAnalysis, spec.Key(), &cached) {
			r.diskHits.Add(1)
			return &cached, nil
		}
		prof, err := r.Run(ctx, sim.RunSpec{Workload: spec.Workload, Input: sim.InputTrain, Insts: spec.Insts})
		if err != nil {
			return nil, err
		}
		tr, err := r.trace(ctx, spec.Workload, spec.Insts)
		if err != nil {
			return nil, err
		}
		a := crisp.Analyze(prof, tr, w.Build(workload.Train).Prog, spec.Opts)
		_ = r.store.Put(kindAnalysis, spec.Key(), a)
		return a, nil
	}
}

// trace memoizes the train-input trace capture per (workload, budget).
// Traces are large, so they live in memory only; the analyses and
// footprints derived from them are what the disk cache persists.
func (r *Runner) trace(ctx context.Context, name string, insts uint64) (*trace.Trace, error) {
	key := fmt.Sprintf("trace|%s|%d", name, insts)
	v, err := r.do(ctx, key, func(ctx context.Context) (any, error) {
		w, err := resolveWorkload(name)
		if err != nil {
			return nil, err
		}
		return sim.CaptureTrace(w.Build(workload.Train), insts), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Trace), nil
}

// ckptResult carries a resolved checkpoint set through the memo table
// along with whether it was loaded from the persistent store (fed into
// per-run metrics) rather than captured by fast-forwarding, and — for a
// fresh capture — its claim-once cost record.
type ckptResult struct {
	set       *checkpoint.Set
	fromStore bool
	stats     *captureStats // nil unless this process ran the capture
}

// captureStats is the host cost of one fresh capture. The memo table
// hands the same ckptResult to every run sharing the set, so the record
// is claimed exactly once: the first run to read it exports the cost in
// its metrics row and later sharers export zero, keeping column sums
// equal to the aggregate Stats counters.
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

// checkpointKey is the content key a checkpoint set persists under. It
// hashes everything that shapes a capture — code version, workload,
// input variant, schedule, warmed cache geometry and front-end
// structure sizes — so a simulator or configuration change misses every
// stale file instead of restoring wrong state.
func checkpointKey(name string, variant workload.Variant, s sim.Sampling) string {
	cfg := sim.DefaultConfig()
	hier, err := json.Marshal(cfg.Hier)
	if err != nil { // unreachable: HierConfig is plain data
		panic(fmt.Sprintf("runner: marshal HierConfig: %v", err))
	}
	msg := fmt.Sprintf("%s|ckpt|%s|%d|%d|%d|%d|%d|btb=%d/%d|ras=%d|hier=%s",
		sim.CodeVersion, name, variant, s.Skip, s.Warm, s.Window, s.Count,
		cfg.Core.BTBEntries, cfg.Core.BTBWays, cfg.Core.RASEntries, hier)
	h := sha256.Sum256([]byte(msg))
	return hex.EncodeToString(h[:16])
}

// checkpointSet resolves the sampled-simulation checkpoint capture per
// (workload, variant, schedule): the cross-config sharing at the heart
// of sampling. Within a process the set is memoized; across processes
// it persists in the store under the binary checkpoint codec, so a
// second process (or a re-run) decodes the warmed state, attaches it to
// the workload image it builds anyway, and skips the functional
// fast-forward. Captures honour cancellation: a cancelled capture returns
// the context's error without publishing a store entry.
func (r *Runner) checkpointSet(ctx context.Context, name string, variant workload.Variant, s sim.Sampling) (*checkpoint.Set, ckptResult, error) {
	key := checkpointKey(name, variant, s)
	v, err := r.do(ctx, "ckpt|"+key, func(ctx context.Context) (any, error) {
		w, err := resolveWorkload(name)
		if err != nil {
			return nil, err
		}
		// A stored set is a delta over the image this workload builds, and
		// enters the memo only attached to it. One that refuses the image
		// (a kernel edited without a CodeVersion bump) is as useless as a
		// corrupt one: delete it and recapture.
		load := func() (any, bool) {
			set, ok := r.store.GetCheckpoint(key)
			if !ok {
				return nil, false
			}
			if set.Attach(w.Build(variant).Mem) != nil {
				r.store.Delete(kindCkpt, key)
				return nil, false
			}
			r.ckptDiskHits.Add(1)
			return ckptResult{set: set, fromStore: true}, true
		}
		if cr, ok := load(); ok {
			return cr, nil
		}
		// Hold the capture lock across fast-forward and publish: two
		// processes sweeping one store fast-forward each schedule once
		// between them, not once each.
		unlock, _, err := r.lockTask(ctx, kindCkpt, key)
		if err != nil {
			return nil, err
		}
		defer unlock()
		if cr, ok := load(); ok {
			return cr, nil
		}
		set, err := sim.CaptureCheckpointsContext(ctx, w.Build(variant), sim.DefaultConfig(), s)
		if err != nil {
			return nil, err
		}
		r.ckptCaptured.Add(1)
		r.captureNS.Add(set.HostNS)
		r.warmInsts.Add(int64(set.WarmInsts))
		// A failed write only costs the next process a recapture.
		_ = r.store.PutCheckpoint(key, set)
		return ckptResult{set: set, stats: &captureStats{captureNS: set.HostNS, warmInsts: set.WarmInsts}}, nil
	})
	if err != nil {
		return nil, ckptResult{}, err
	}
	cr := v.(ckptResult)
	return cr.set, cr, nil
}

// Footprint resolves the Figure 12 code-size metrics for an analysis.
func (r *Runner) Footprint(ctx context.Context, spec AnalysisSpec) (*crisp.Footprint, error) {
	v, err := r.do(ctx, "footprint|"+spec.Key(), r.footprintTask(spec))
	if err != nil {
		return nil, err
	}
	return v.(*crisp.Footprint), nil
}

// SubmitFootprint starts the footprint measurement without waiting.
func (r *Runner) SubmitFootprint(spec AnalysisSpec) *FootprintHandle {
	r.background("footprint|"+spec.Key(), r.footprintTask(spec))
	return &FootprintHandle{r: r, Spec: spec}
}

// FootprintHandle is a submitted footprint measurement.
type FootprintHandle struct {
	r    *Runner
	Spec AnalysisSpec
}

// Result blocks until the footprint resolves.
func (h *FootprintHandle) Result(ctx context.Context) (*crisp.Footprint, error) {
	return h.r.Footprint(ctx, h.Spec)
}

func (r *Runner) footprintTask(spec AnalysisSpec) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		w, err := resolveWorkload(spec.Workload)
		if err != nil {
			return nil, err
		}
		if r.remote != nil {
			fp, err := r.remote.Footprint(ctx, spec)
			if err != nil {
				return nil, err
			}
			r.remoteRuns.Add(1)
			return fp, nil
		}
		var cached crisp.Footprint
		if r.store.Get(kindFootprint, spec.Key(), &cached) {
			r.diskHits.Add(1)
			return &cached, nil
		}
		unlock, _, err := r.lockTask(ctx, kindFootprint, spec.Key())
		if err != nil {
			return nil, err
		}
		defer unlock()
		if r.store.Get(kindFootprint, spec.Key(), &cached) {
			r.diskHits.Add(1)
			return &cached, nil
		}
		a, err := r.Analysis(ctx, spec)
		if err != nil {
			return nil, err
		}
		tr, err := r.trace(ctx, spec.Workload, spec.Insts)
		if err != nil {
			return nil, err
		}
		fp := crisp.MeasureFootprint(w.Build(workload.Train).Prog, tr, a.CriticalPCs)
		_ = r.store.Put(kindFootprint, spec.Key(), &fp)
		return &fp, nil
	}
}
