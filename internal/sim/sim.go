// Package sim wires the simulated system together (Table 1): the OOO core,
// the cache hierarchy with data prefetchers, DRAM, and the optional
// criticality mechanisms (static CRISP tags or runtime IBDA marking). It
// also drives the paper's two-phase flow: a profiling run plus trace
// capture on the train input, CRISP analysis, then evaluation runs on the
// ref input (Section 5.1).
package sim

import (
	"context"
	"fmt"

	"crisp/internal/branch"
	"crisp/internal/cache"
	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/emu"
	"crisp/internal/ibda"
	"crisp/internal/isa"
	"crisp/internal/prefetch"
	"crisp/internal/program"
	"crisp/internal/trace"
)

// Image is a ready-to-run workload instance: static code plus initialized
// memory and registers. Train and ref variants of a workload share the
// same program and differ only in data (Section 5.1's separate profiling
// and evaluation inputs).
type Image struct {
	Prog *program.Program
	Mem  *emu.Memory
	Regs map[isa.Reg]int64
}

// withProg returns a shallow copy of the Image running program p in place
// of img's program (used to swap in a critical-tagged clone). The memory
// and register map are shared, NOT forked: a run consumes its image's
// memory state, so the original and the copy cannot both be simulated —
// take one image per run (workload.Build hands out an O(1) fork each
// call).
func (img *Image) withProg(p *program.Program) *Image {
	return &Image{Prog: p, Mem: img.Mem, Regs: img.Regs}
}

// emulator returns a functional emulator at the image's entry state. It
// executes over img.Mem itself: this is what consumes the image.
func (img *Image) emulator() *emu.Emulator {
	em := emu.New(img.Prog, img.Mem)
	for r, v := range img.Regs {
		em.SetReg(r, v)
	}
	return em
}

// PrefetcherKind selects the data-prefetch configuration.
type PrefetcherKind int

// Data prefetcher configurations.
const (
	PFBOPStream PrefetcherKind = iota // Table 1 default: BOP + stream
	PFStride
	PFGHB
	PFNone
)

// String is the kind's name in package prefetch, which prefetch.New builds.
func (p PrefetcherKind) String() string {
	switch p {
	case PFBOPStream:
		return prefetch.KindBOPStream
	case PFStride:
		return prefetch.KindStride
	case PFGHB:
		return prefetch.KindGHB
	default:
		return prefetch.KindNone
	}
}

// Config is what a run may vary of the simulated system. The cache
// hierarchy is Table 1's, cache.DefaultHierConfig.
type Config struct {
	Core       core.Config
	Prefetcher PrefetcherKind
	// IBDA, when non-nil, attaches the runtime IBDA marker (and the run
	// should use the CRISP scheduler so marks take effect).
	IBDA *ibda.Config
}

// DefaultConfig returns the Table 1 system.
func DefaultConfig() Config {
	return Config{
		Core:       core.DefaultConfig(),
		Prefetcher: PFBOPStream,
	}
}

// WithSched returns a copy with the scheduler policy replaced.
func (c Config) WithSched(s core.SchedulerKind) Config {
	c.Core.Scheduler = s
	return c
}

// Run executes one timing simulation of the image under cfg.
func Run(img *Image, cfg Config) *core.Result {
	r, _ := RunContext(context.Background(), img, cfg)
	return r
}

// attachPrefetcher installs the configured data prefetcher on L1D. Every
// kind's name is one prefetch.New builds.
func attachPrefetcher(kind PrefetcherKind, hier *cache.Hierarchy) {
	if pf, _ := prefetch.New(kind.String()); pf != nil {
		hier.L1D.SetPrefetcher(pf)
	}
}

// attachIBDA wires an IBDA instance's delinquent-load feedback to the
// LLC and returns it as the core's marker. The observer registers through
// the hierarchy view, so on a shared LLC it fires only for this core's
// misses.
func attachIBDA(ib *ibda.IBDA, prog *program.Program, hier *cache.Hierarchy) core.Marker {
	hier.SetMissObserver(func(pc, _ uint64) {
		spc := int(pc)
		if spc >= 0 && spc < prog.Len() && prog.Insts[spc].Op == isa.OpLoad {
			ib.OnLLCMiss(spc)
		}
	})
	return ib
}

// cancelCheck adapts a context to the core's cancellation poll; returns
// nil for contexts that can never be cancelled.
func cancelCheck(ctx context.Context) func() bool {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// RunContext is Run with cancellation: the one-core co-run of img under
// cfg (RunMultiContext). The context's Done channel is polled once per
// iteration of the cycle loop, so a cancelled or timed-out sweep stops
// mid-simulation instead of running its instruction budget out. On
// cancellation it returns (nil, ctx.Err()).
func RunContext(ctx context.Context, img *Image, cfg Config) (*core.Result, error) {
	m, err := RunMultiContext(ctx, []*Image{img}, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return m.Cores[0], nil
}

// CaptureCheckpointsContext runs the single functional fast-forward pass
// over the image and returns the checkpoint set for the schedule: the per-
// (workload, input, schedule) artifact every config's sampled run
// restores from. The image is consumed. The warmed cache geometry and
// frontend structure sizes are Table 1's (capturePlan); the Config
// argument is unused. Cancellation is observed every few milliseconds (see
// checkpoint.Capture) and returns (nil, ctx.Err()), so a partial set is
// never stored.
func CaptureCheckpointsContext(ctx context.Context, img *Image, _ Config, s Sampling) (*checkpoint.Set, error) {
	// Warm one cache-hierarchy/prefetcher variant per prefetcher kind:
	// prefetched lines are part of steady-state cache content (resident
	// prefetches dedup most later suggestions), and prefetcher training
	// itself converges slowly, so both must be warmed per kind. The
	// functional execution — the expensive part — still happens once, and
	// every scheduler config of every kind shares the result.
	plan := capturePlan(prefetch.KindBOPStream, prefetch.KindStride, prefetch.KindGHB, prefetch.KindNone)
	return checkpoint.Capture(ctx, []*program.Program{img.Prog}, []*emu.Emulator{img.emulator()}, plan, s)
}

// capturePlan is a capture of the named variants warmed at Table 1's
// geometry and frontend sizes.
func capturePlan(variants ...string) checkpoint.Plan {
	return checkpoint.Plan{Hier: cache.DefaultHierConfig(), BTBEntries: core.BTBEntries, BTBWays: core.BTBWays,
		RASEntries: core.RASEntries, Variants: variants}
}

// RunSampledContext is the one-core RunMultiSampledContext: a sampled
// simulation of prog under cfg over a previously captured one-core
// checkpoint set, the windows restored into cfg's prefetcher variant and
// aggregated into one weighted core.Result. prog must be
// position-identical to the program the set was captured from (a
// critical-tagged clone qualifies). The set is only read, never mutated,
// so any number of configs may run over it concurrently.
func RunSampledContext(ctx context.Context, set *checkpoint.Set, prog *program.Program, cfg Config, s Sampling) (*core.Result, error) {
	m, err := RunMultiSampledContext(ctx, set, []*program.Program{prog}, []Config{cfg}, s)
	if err != nil {
		return nil, err
	}
	return m.Cores[0], nil
}

// windowCore builds core i of one restored detailed window: ccfg with the
// window's instruction budget, over core i's restored emulator, view and
// front-end state — the warmed predictor left out under PerfectBP. The
// budget must not be zero: the suite's kernels never halt, so a window
// core without one would never finish.
func windowCore(ccfg core.Config, budget uint64, prog *program.Program, st checkpoint.Restored, i int, marker core.Marker) *core.Core {
	if budget == 0 {
		panic(fmt.Sprintf("sim: window core %d has no instruction budget", i))
	}
	ccfg.MaxInsts = budget
	c := core.New(ccfg, prog, st.Ems[i], st.Hier.Views[i], marker)
	var bp branch.Predictor
	if !ccfg.PerfectBP {
		bp = st.BPs[i]
	}
	c.SetBranchState(bp, st.BTBs[i], st.RASs[i])
	return c
}

// CaptureTrace functionally executes the image and records up to limit
// dynamic instructions with producer links (the tracing step of Figure 5).
func CaptureTrace(img *Image, limit uint64) *trace.Trace {
	return trace.Capture(img.emulator(), limit)
}

// Pipeline bundles the outputs of the CRISP software flow for a workload.
type Pipeline struct {
	Analysis  *crisp.Analysis
	Footprint crisp.Footprint
	Profile   *core.Result
}

// DefaultAnalysisTraceLimit is the fallback dynamic-instruction budget
// for AnalyzeTrain's trace capture when the run configuration carries no
// explicit MaxInsts. The workload kernels loop indefinitely (they are
// bounded by instruction budgets, not by Halt), so an unbounded capture
// would never terminate; 2^21 ≈ 2.1M instructions is enough for the
// dependence-chain analysis to converge on every kernel in the registry.
// Sampled runs size the analysis window explicitly (Sampling.Total()).
const DefaultAnalysisTraceLimit uint64 = 1 << 21

// AnalyzeTrain runs the profiling pass and trace capture on a train image
// pair and returns the CRISP analysis. trainProfile and trainTrace must be
// two images of the same workload variant that share no writable memory
// — two workload.Build calls — since each run consumes its image's memory
// state.
func AnalyzeTrain(trainProfile, trainTrace *Image, cfg Config, opts crisp.Options) *Pipeline {
	prof := Run(trainProfile, cfg.WithSched(core.SchedOldestFirst))
	limit := cfg.Core.MaxInsts
	if limit == 0 {
		limit = DefaultAnalysisTraceLimit
	}
	tr := CaptureTrace(trainTrace, limit)
	analysis := crisp.Analyze(prof, tr, trainTrace.Prog, opts)
	fp := crisp.MeasureFootprint(trainTrace.Prog, tr, analysis.CriticalPCs)
	return &Pipeline{Analysis: analysis, Footprint: fp, Profile: prof}
}

// Tagged returns a copy of img running the analysis-tagged program.
func (p *Pipeline) Tagged(img *Image) *Image {
	return img.withProg(p.Analysis.Apply(img.Prog))
}

// Describe formats a one-line summary of a result for logs, including the
// host-side simulation speed.
func Describe(name string, r *core.Result) string {
	return fmt.Sprintf("%-14s IPC %.3f cycles %d insts %d LLC-MPKI %.2f brMPKI %.2f host %.2f MIPS",
		name, r.IPC(), r.Cycles, r.Insts, r.LLCMPKI(), r.BranchMPKI(), r.HostMIPS())
}
