package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"crisp/internal/checkpoint"
	"crisp/internal/crisp"
	"crisp/internal/emu"
	"crisp/internal/program"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// ------------------------------------------------- multi-core timing runs

// RunMulti resolves a multi-core co-location spec to its result,
// executing the lockstep simulation at most once per content key across
// all concurrent callers and processes sharing the persistent cache —
// the same single-flight discipline as single-core Run.
func (r *Runner) RunMulti(ctx context.Context, spec sim.MultiSpec) (*sim.MultiResult, error) {
	v, err := r.do(ctx, "multi|"+spec.Key(), r.multiTask(spec))
	if err != nil {
		return nil, err
	}
	return v.(*sim.MultiResult), nil
}

// SubmitMulti starts spec on the pool without waiting and returns a
// handle whose Result joins the in-flight (or finished) computation.
func (r *Runner) SubmitMulti(spec sim.MultiSpec) *MultiHandle {
	r.background("multi|"+spec.Key(), r.multiTask(spec))
	return &MultiHandle{r: r, Spec: spec}
}

// MultiHandle is a submitted multi-core timing run.
type MultiHandle struct {
	r    *Runner
	Spec sim.MultiSpec
}

// Result blocks until the run resolves.
func (h *MultiHandle) Result(ctx context.Context) (*sim.MultiResult, error) {
	return h.r.RunMulti(ctx, h.Spec)
}

func (r *Runner) multiTask(spec sim.MultiSpec) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		cfgs, err := spec.Configs() // validates the spec as a side effect
		if err != nil {
			return nil, err
		}
		if r.remote != nil {
			res, err := r.remote.RunMulti(ctx, spec)
			if err != nil {
				return nil, err
			}
			r.remoteRuns.Add(1)
			return res, nil
		}
		key := spec.Key()
		var cached sim.MultiResult
		if r.store.Get(kindMulti, key, &cached) {
			r.diskHits.Add(1)
			return &cached, nil
		}
		// Cross-process single-flight, as in runTask: hold the spec's
		// file lock across compute-and-publish.
		unlock, _, err := r.lockTask(ctx, kindMulti, key)
		if err != nil {
			return nil, err
		}
		defer unlock()
		if r.store.Get(kindMulti, key, &cached) {
			r.diskHits.Add(1)
			return &cached, nil
		}
		// Resolve each clause to an image exactly as runTask would: CRISP
		// clauses run the (deduped, disk-cached) software pipeline first,
		// so a colocate sweep shares analyses with the single-core figures.
		// Sampled specs have no per-clause budget; the analysis profiles
		// over the instruction span the schedule covers, as runTask does.
		imgs := make([]*sim.Image, len(spec.Cores))
		for i, cs := range spec.Cores {
			w, err := resolveWorkload(cs.Workload)
			if err != nil {
				return nil, err
			}
			var a *crisp.Analysis
			if cs.Crisp != nil {
				budget := cs.Insts
				if spec.Sampling != nil {
					budget = spec.Sampling.Total()
				}
				a, err = r.Analysis(ctx, AnalysisSpec{Workload: cs.Workload, Insts: budget, Opts: *cs.Crisp})
				if err != nil {
					return nil, err
				}
			}
			variant := workload.Ref
			if cs.Input == sim.InputTrain {
				variant = workload.Train
			}
			img := w.Build(variant)
			if a != nil {
				img.Prog = a.Apply(img.Prog)
			}
			imgs[i] = img
		}
		var res *sim.MultiResult
		if spec.Sampling != nil {
			// Sampled path: resolve the co-scheduled checkpoint set (one
			// capture per workload/schedule/prefetcher tuple, shared by
			// every scheduler config and every process on the store), then
			// run the detailed lockstep windows over the tagged programs.
			set, _, err := r.multiCheckpointSet(ctx, spec, cfgs)
			if err != nil {
				return nil, err
			}
			progs := make([]*program.Program, len(imgs))
			for i := range imgs {
				progs[i] = imgs[i].Prog
			}
			res, err = sim.RunMultiSampledContext(r.simCtx(ctx), set, progs, cfgs, *spec.Sampling)
			if err != nil {
				return nil, err
			}
		} else {
			res, err = sim.RunMultiContext(ctx, imgs, cfgs)
			if err != nil {
				return nil, err
			}
		}
		r.executed.Add(1)
		// Cache-write failures only cost a future re-simulation.
		_ = r.store.Put(kindMulti, key, res)
		return res, nil
	}
}

// mckptResult mirrors ckptResult for co-scheduled multi-core sets.
type mckptResult struct {
	set       *checkpoint.MultiSet
	fromStore bool
}

// multiCheckpointKey is the content key a co-scheduled checkpoint set
// persists under. Beyond the single-core key's inputs (code version,
// schedule, warmed geometry, front-end sizes) it hashes the ordered
// per-core workload/input/prefetcher tuple: core order fixes requester
// indices and address-space slices, and the prefetcher tuple shapes the
// shared LLC's warmed occupancy, so any of them changing must miss.
func multiCheckpointKey(spec sim.MultiSpec) string {
	cfg := sim.DefaultConfig()
	hier, err := json.Marshal(cfg.Hier)
	if err != nil { // unreachable: HierConfig is plain data
		panic(fmt.Sprintf("runner: marshal HierConfig: %v", err))
	}
	s := spec.Sampling
	var b strings.Builder
	fmt.Fprintf(&b, "%s|mckpt|%d|%d|%d|%d", sim.CodeVersion, s.Skip, s.Warm, s.Window, s.Count)
	for _, cs := range spec.Cores {
		variant := workload.Ref
		if cs.Input == sim.InputTrain {
			variant = workload.Train
		}
		fmt.Fprintf(&b, "|core=%s/%d/pf=%s", cs.Workload, variant, cs.Prefetcher.String())
	}
	fmt.Fprintf(&b, "|btb=%d/%d|ras=%d|hier=%s",
		cfg.Core.BTBEntries, cfg.Core.BTBWays, cfg.Core.RASEntries, hier)
	h := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(h[:16])
}

// multiCheckpointSet resolves the co-scheduled checkpoint capture for a
// sampled MultiSpec with checkpointSet's discipline: memoized in
// process, file-lock single-flighted across processes, persisted under
// the binary multi-set codec. The capture warms untagged images — tags
// do not change functional behaviour, so every CRISP/OOO scheduler
// config of the same workload tuple shares the set. The reported bool
// is true when the set came from the store.
func (r *Runner) multiCheckpointSet(ctx context.Context, spec sim.MultiSpec, cfgs []sim.Config) (*checkpoint.MultiSet, bool, error) {
	key := multiCheckpointKey(spec)
	v, err := r.do(ctx, "mckpt|"+key, func(ctx context.Context) (any, error) {
		ws := make([]*workload.Workload, len(spec.Cores))
		for i, cs := range spec.Cores {
			w, err := resolveWorkload(cs.Workload)
			if err != nil {
				return nil, err
			}
			ws[i] = w
		}
		build := func() []*sim.Image {
			imgs := make([]*sim.Image, len(spec.Cores))
			for i, cs := range spec.Cores {
				variant := workload.Ref
				if cs.Input == sim.InputTrain {
					variant = workload.Train
				}
				imgs[i] = ws[i].Build(variant)
			}
			return imgs
		}
		// As in checkpointSet: a stored set enters the memo attached to the
		// images its workloads build, or is deleted and recaptured.
		load := func() (any, bool) {
			set, ok := r.store.GetMultiCheckpoint(key)
			if !ok {
				return nil, false
			}
			imgs := build()
			mems := make([]*emu.Memory, len(imgs))
			for i, img := range imgs {
				mems[i] = img.Mem
			}
			if set.Attach(mems) != nil {
				r.store.Delete(kindMultiCkpt, key)
				return nil, false
			}
			r.ckptDiskHits.Add(1)
			return mckptResult{set, true}, true
		}
		if cr, ok := load(); ok {
			return cr, nil
		}
		// Hold the capture lock across fast-forward and publish: two
		// processes sweeping one store co-schedule each tuple once
		// between them, not once each.
		unlock, _, err := r.lockTask(ctx, kindMultiCkpt, key)
		if err != nil {
			return nil, err
		}
		defer unlock()
		if cr, ok := load(); ok {
			return cr, nil
		}
		imgs := build()
		set, err := sim.CaptureMultiCheckpointsContext(ctx, imgs, cfgs, *spec.Sampling)
		if err != nil {
			return nil, err
		}
		r.ckptCaptured.Add(1)
		r.captureNS.Add(set.HostNS)
		r.warmInsts.Add(int64(set.WarmInsts))
		// A failed write only costs the next process a recapture.
		_ = r.store.PutMultiCheckpoint(key, set)
		return mckptResult{set, false}, nil
	})
	if err != nil {
		return nil, false, err
	}
	cr := v.(mckptResult)
	return cr.set, cr.fromStore, nil
}
