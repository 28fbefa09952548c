package sim

import (
	"context"
	"fmt"
	"time"

	"crisp/internal/cache"
	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/dram"
	"crisp/internal/emu"
	"crisp/internal/ibda"
	"crisp/internal/program"
)

// Sampled multi-core execution: CaptureMultiCheckpointsContext runs the
// co-scheduled functional pass once per (workload tuple, schedule,
// per-core prefetcher tuple), and RunMultiSampledContext restores the
// aligned points into detailed lockstep windows, one after another.
// Unlike the single-core capture — which warms every prefetcher kind side
// by side and lets each config pick its variant — the co-scheduled
// capture warms the one variant its prefetcher tuple names, so scheduler
// and window-size sweeps share a set and prefetcher sweeps recapture.

// Calibration bounds: each mini-capture that measures per-core co-run
// speeds warms for at most calWarm instructions per core and runs one
// detailed lockstep window of at most calWindow instructions per core;
// the capture-measure loop iterates until consecutive pace estimates
// agree within calTol per core, at most calMaxIters times.
const (
	calWarm     = 400_000
	calWindow   = 20_000
	calMaxIters = 3
	calTol      = 0.05
)

// CaptureMultiCheckpointsContext runs the co-scheduled functional
// fast-forward pass over the images (one per core, consumed) and returns
// the set their sampled co-runs restore from, warmed at Table 1's
// geometry and frontend sizes. The per-core prefetcher kinds come from
// cfgs, which must match the configs that will restore the set
// (RunMultiSampledContext verifies the prefetcher tuple).
//
// Capture is speed-paced: a small calibration pass — an unpaced
// mini-capture plus one detailed lockstep window under the baseline
// scheduler — measures each core's drain-free co-located IPC
// (core.Result.CoInsts/CoCycles), and the real capture scales every
// core's phase budgets and warming interleave by the resulting ratios.
// The calibration scheduler is pinned to the baseline regardless of
// cfgs, so configs that share a set (scheduler and window-size sweeps)
// derive the same pace and therefore byte-identical sets.
//
// The set's HostNS is the host time of the whole call, calibration
// included. Cancellation is observed by the calibration mini-captures and
// windows and by the real capture. It then returns (nil, ctx.Err()), so a
// partial set is never stored.
func CaptureMultiCheckpointsContext(ctx context.Context, imgs []*Image, cfgs []Config, s Sampling) (*checkpoint.Set, error) {
	start := time.Now()
	n := len(imgs)
	if n == 0 || len(cfgs) != n {
		return nil, fmt.Errorf("sim: CaptureMultiCheckpoints needs one config per image (%d images, %d configs)", n, len(cfgs))
	}
	newEms := func() ([]*program.Program, []*emu.Emulator, checkpoint.Plan) {
		progs := make([]*program.Program, n)
		ems := make([]*emu.Emulator, n)
		for i := range imgs {
			progs[i] = imgs[i].Prog
			ems[i] = imgs[i].emulator()
		}
		plan := capturePlan(variantOf(cfgs))
		plan.Shared = true
		return progs, ems, plan
	}

	// The set is stored as a delta over the images the workloads built.
	// Calibration runs its mini-captures over the same memories, so by the
	// time the real capture starts they hold calibration's stores as well:
	// fork the images now, and hand those through to the set. Every point
	// still descends from them, which is all the delta needs.
	images := make([]*emu.Memory, n)
	for i := range imgs {
		images[i] = imgs[i].Mem.Snapshot()
	}

	pace, err := calibratePace(ctx, imgs, cfgs, s, newEms)
	if err != nil {
		return nil, err
	}

	progs, ems, plan := newEms()
	plan.Pace = pace
	set, err := checkpoint.Capture(ctx, progs, ems, plan, s)
	if err != nil {
		return nil, err
	}
	set.Images = images
	set.HostNS = time.Since(start).Nanoseconds()
	return set, nil
}

// calibratePace measures the cores' relative co-run speeds by iterating
// to a fixed point: a mini-capture warms a shared hierarchy under an
// assumed pace, a restored lockstep window runs all cores under the
// baseline scheduler, and each core's drain-free co-phase IPC (retired
// instructions at the shared cycle the first core finished) is
// normalized against the fastest to give the next pace estimate. The
// iteration matters because pace and warmed state are circular: the
// warming interleave mix determines each core's share of the shared LLC,
// which determines the co-run speeds the capture should have warmed at.
// Starting unpaced (1:1) systematically overestimates a slow core —
// equal-instruction warming hands it more LLC occupancy than it can
// defend — so one more capture at the measured pace corrects the warmed
// state, and the estimates converge in two or three rounds. Returns nil
// (uniform pace) for single-core sets or when calibration cannot produce
// a point (a program halting inside the mini-capture). A non-nil error
// only ever reports cancellation of ctx.
func calibratePace(ctx context.Context, imgs []*Image, cfgs []Config, s Sampling, newEms func() ([]*program.Program, []*emu.Emulator, checkpoint.Plan)) ([]float64, error) {
	n := len(imgs)
	if n < 2 {
		return nil, nil
	}
	warm := s.Skip + s.Warm
	if warm > calWarm {
		warm = calWarm
	}
	window := s.Window
	if window > calWindow {
		window = calWindow
	}
	var pace []float64
	for iter := 0; iter < calMaxIters; iter++ {
		progs, ems, plan := newEms()
		plan.Pace = pace
		cal, err := checkpoint.Capture(ctx, progs, ems, plan, checkpoint.Params{Warm: warm, Window: window, Count: 1})
		if err != nil {
			return nil, err
		}
		if len(cal.Points) == 0 {
			return nil, nil
		}
		st, err := cal.Points[0].RestoreVariant(progs, variantOf(cfgs))
		if err != nil {
			return nil, nil
		}
		cores := make([]*core.Core, n)
		for i := 0; i < n; i++ {
			ccfg := cfgs[i].Core
			ccfg.Scheduler = core.SchedOldestFirst // pace must not depend on the swept scheduler
			cores[i] = windowCore(ccfg, window, progs[i], st, i, nil)
		}
		results := core.RunMulti(cores, cancelCheck(ctx))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := make([]float64, n)
		max := 0.0
		for i, r := range results {
			if r.CoCycles > 0 {
				next[i] = float64(r.CoInsts) / float64(r.CoCycles)
			}
			if next[i] > max {
				max = next[i]
			}
		}
		if max <= 0 {
			return pace, nil
		}
		for i := range next {
			next[i] /= max
		}
		converged := pace != nil
		for i := range next {
			if converged {
				if d := next[i] - pace[i]; d > calTol || d < -calTol {
					converged = false
				}
			}
		}
		pace = next
		if converged {
			break
		}
	}
	return pace, nil
}

// RunMultiSampledContext executes a sampled co-scheduled simulation over
// a previously captured set; RunSampledContext is its one-core call. A
// set of another core count or without a variant warmed for cfgs'
// prefetcher tuple (the shared LLC's content depends on every core's
// prefetch traffic) is an error. In execution order, on the caller's
// goroutine, each point restores into a fresh detailed lockstep window
// whose core i runs set.WindowInsts[i] instructions of progs[i]
// (position-identical to the program core i was captured with) under
// cfgs[i], and the window is added to the aggregate before the next point
// restores. A core's windows are equal length, so
// summing counters, breakdowns, histograms and shared-level stats is the
// weighted aggregate. Budgets proportional to co-run speeds mean the
// cores finish each window together: the windows measure the co-located
// phase, not the solo drain of a slow core. A core under runtime IBDA
// keeps one instance across its windows, as the mechanism would have
// learnt over the whole execution. HostNS is the time the windows took,
// HostFFNS the set's capture time. On cancellation it returns
// (nil, ctx.Err()) and restores no later point.
func RunMultiSampledContext(ctx context.Context, set *checkpoint.Set, progs []*program.Program, cfgs []Config, _ Sampling) (*MultiResult, error) {
	n, variant, points := len(cfgs), variantOf(cfgs), len(set.Points)
	if len(progs) != n || n != set.Cores {
		return nil, fmt.Errorf("sim: %d-core checkpoint set, %d programs, %d configs", set.Cores, len(progs), n)
	}
	if points > 0 && set.Points[0].Variants[variant] == nil {
		return nil, fmt.Errorf("sim: checkpoint set has no variant warmed for prefetchers %q", variant)
	}
	ibs := make([]*ibda.IBDA, n)
	for i := range cfgs {
		if cfgs[i].IBDA != nil {
			ibs[i] = ibda.New(*cfgs[i].IBDA)
		}
	}
	m := &MultiResult{
		Cores:          make([]*core.Result, n),
		LLCPerCore:     make([]cache.Stats, n),
		DRAMPerCore:    make([]dram.Stats, n),
		SampledWindows: points,
		FFInsts:        set.FFInsts,
		HostFFNS:       set.HostNS,
	}
	check := cancelCheck(ctx)
	for _, pt := range set.Points {
		st, err := pt.RestoreVariant(progs, variant)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		cores := make([]*core.Core, n)
		for i := range cores {
			var marker core.Marker
			if ibs[i] != nil {
				marker = attachIBDA(ibs[i], progs[i], st.Hier.Views[i])
			}
			cores[i] = windowCore(cfgs[i].Core, set.WindowInsts[i], progs[i], st, i, marker)
		}
		w := sharedResult(st.Hier, core.RunMulti(cores, check))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if m.Cores[i] == nil {
				m.Cores[i] = w.Cores[i]
			} else {
				m.Cores[i].Merge(w.Cores[i])
			}
			m.LLCPerCore[i].Add(&w.LLCPerCore[i])
			m.DRAMPerCore[i].Add(&w.DRAMPerCore[i])
		}
		m.LLC.Add(&w.LLC)
		m.DRAM.Add(&w.DRAM)
		m.HostNS += w.HostNS // max core = whole lockstep window
	}
	for i := 0; i < n; i++ {
		if m.Cores[i] == nil {
			m.Cores[i] = &core.Result{Loads: map[int]*core.LoadProf{}, Branches: map[int]*core.BranchProf{}}
		}
		m.Cores[i].SampledWindows = points
		m.Cores[i].FFInsts = set.FFPerCore[i]
		m.Cores[i].HostFFNS = set.HostNS
	}
	return m, nil
}

// variantOf names the set variant a tuple of per-core configs restores:
// their prefetcher kinds.
func variantOf(cfgs []Config) string {
	kinds := make([]string, len(cfgs))
	for i := range cfgs {
		kinds[i] = cfgs[i].Prefetcher.String()
	}
	return checkpoint.VariantName(kinds)
}
