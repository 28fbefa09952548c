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
	"crisp/internal/prefetch"
	"crisp/internal/program"
)

// Sampled multi-core execution: CaptureMultiCheckpointsContext runs the
// co-scheduled functional pass once per (workload tuple, schedule,
// per-core prefetcher tuple), and RunMultiSampledContext restores the
// aligned points into parallel detailed lockstep windows. Unlike the
// single-core capture — which warms every prefetcher kind side by side
// and lets each config pick its variant — one shared LLC can only hold
// one co-resident occupancy, so the prefetcher tuple is part of the
// capture: scheduler and window-size sweeps share a set, prefetcher
// sweeps recapture.

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
// the MultiSet their sampled co-runs restore from. The shared-hierarchy
// geometry, frontend structure sizes and per-core prefetcher kinds come
// from cfgs, which must match the configs that will restore the set
// (RunMultiSampledContext verifies geometry and prefetcher tuple).
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
func CaptureMultiCheckpointsContext(ctx context.Context, imgs []*Image, cfgs []Config, s Sampling) (*checkpoint.MultiSet, error) {
	start := time.Now()
	n := len(imgs)
	if n == 0 || len(cfgs) != n {
		return nil, fmt.Errorf("sim: CaptureMultiCheckpoints needs one config per image (%d images, %d configs)", n, len(cfgs))
	}
	for i := range imgs {
		if cfgs[i].Hier != cfgs[0].Hier {
			return nil, fmt.Errorf("sim: core %d hierarchy geometry differs from core 0", i)
		}
	}
	newEms := func() ([]*program.Program, []*emu.Emulator, []prefetch.Prefetcher, []string) {
		progs := make([]*program.Program, n)
		ems := make([]*emu.Emulator, n)
		pfs := make([]prefetch.Prefetcher, n)
		kinds := make([]string, n)
		for i := range imgs {
			progs[i] = imgs[i].Prog
			ems[i] = imgs[i].emulator()
			pfs[i] = newPrefetcher(cfgs[i].Prefetcher)
			kinds[i] = cfgs[i].Prefetcher.String()
		}
		return progs, ems, pfs, kinds
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

	progs, ems, pfs, kinds := newEms()
	set, err := checkpoint.CaptureMultiContext(ctx, progs, ems, cfgs[0].Hier,
		cfgs[0].Core.BTBEntries, cfgs[0].Core.BTBWays, cfgs[0].Core.RASEntries, pfs,
		checkpoint.Params{Skip: s.Skip, Warm: s.Warm, Window: s.Window, Count: s.Count}, pace)
	if err != nil {
		return nil, err
	}
	set.PFKinds = kinds
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
func calibratePace(ctx context.Context, imgs []*Image, cfgs []Config, s Sampling, newEms func() ([]*program.Program, []*emu.Emulator, []prefetch.Prefetcher, []string)) ([]float64, error) {
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
		progs, ems, pfs, _ := newEms()
		cal, err := checkpoint.CaptureMultiContext(ctx, progs, ems, cfgs[0].Hier,
			cfgs[0].Core.BTBEntries, cfgs[0].Core.BTBWays, cfgs[0].Core.RASEntries, pfs,
			checkpoint.Params{Warm: warm, Window: window, Count: 1}, pace)
		if err != nil {
			return nil, err
		}
		if len(cal.Points) == 0 {
			return nil, nil
		}
		st, err := cal.Points[0].Restore(progs)
		if err != nil {
			return nil, nil
		}
		cores := make([]*core.Core, n)
		for i := 0; i < n; i++ {
			ccfg := cfgs[i].Core
			ccfg.Scheduler = core.SchedOldestFirst // pace must not depend on the swept scheduler
			cores[i] = windowCore(ccfg, window, progs[i], st.Ems[i], st.Hier.Views[i], nil, st.BPs[i], st.BTBs[i], st.RASs[i], nil)
		}
		results := core.RunMultiWindow(cores, nil)
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
// a previously captured MultiSet: it restores each aligned checkpoint
// into a fresh detailed lockstep window — a clone of the
// co-residency-warmed shared hierarchy, per-core emulators over copy-on-write memory forks, cloned
// predictors and prefetchers — runs the cores to their pace-scaled
// window budgets (set.WindowInsts) with core.RunMultiWindow, and
// aggregates per core across windows exactly as the single-core sampled
// path does (each core's windows are equal length, so per-core summing
// is the weighted aggregate; shared-level stats sum the same way).
// Budgets proportional to co-run speeds mean the cores finish each
// window together: the windows measure the co-located phase itself, not
// the solo drain a slow core would run after equal budgets let its
// neighbours finish early. progs[i] must be position-identical to the
// program core i was captured with. Runtime IBDA is rejected by MultiSpec.Validate — an
// instance spans windows — so the windows are always independent and fan
// out over the sampled worker pool; the merge runs in window-index
// order, keeping the aggregate identical to a sequential execution.
func RunMultiSampledContext(ctx context.Context, set *checkpoint.MultiSet, progs []*program.Program, cfgs []Config, s Sampling) (*MultiResult, error) {
	n := set.Cores
	if len(progs) != n || len(cfgs) != n {
		return nil, fmt.Errorf("sim: %d-core checkpoint set, %d programs, %d configs", n, len(progs), len(cfgs))
	}
	for i := range cfgs {
		if cfgs[i].Hier != set.Hier {
			return nil, fmt.Errorf("sim: core %d config hierarchy geometry differs from the checkpoint set's", i)
		}
		if cfgs[i].IBDA != nil {
			return nil, fmt.Errorf("sim: core %d uses runtime IBDA marking; sampled multi-core runs do not support it", i)
		}
		if set.PFKinds != nil && set.PFKinds[i] != cfgs[i].Prefetcher.String() {
			return nil, fmt.Errorf("sim: checkpoint set warmed core %d for prefetcher %q, config wants %q (the prefetcher tuple is part of the capture)",
				i, set.PFKinds[i], cfgs[i].Prefetcher.String())
		}
	}
	check := cancelCheck(ctx)

	outs := make([]*MultiResult, len(set.Points))
	err := fanOut(ctx, len(set.Points), func(w int) error {
		st, err := set.Points[w].Restore(progs)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		cores := make([]*core.Core, n)
		for i := 0; i < n; i++ {
			budget := s.Window
			if set.WindowInsts != nil {
				budget = set.WindowInsts[i]
			}
			cores[i] = windowCore(cfgs[i].Core, budget, progs[i], st.Ems[i], st.Hier.Views[i], nil, st.BPs[i], st.BTBs[i], st.RASs[i], check)
		}
		outs[w] = sharedResult(st.Hier, core.RunMultiWindow(cores, check))
		return nil
	})
	if err != nil {
		return nil, err
	}

	m := &MultiResult{
		Cores:       make([]*core.Result, n),
		LLCPerCore:  make([]cache.Stats, n),
		DRAMPerCore: make([]dram.Stats, n),
	}
	for _, out := range outs {
		for i := 0; i < n; i++ {
			if m.Cores[i] == nil {
				m.Cores[i] = out.Cores[i]
			} else {
				m.Cores[i].Merge(out.Cores[i])
			}
			m.LLCPerCore[i].Add(&out.LLCPerCore[i])
			m.DRAMPerCore[i].Add(&out.DRAMPerCore[i])
		}
		m.LLC.Add(&out.LLC)
		m.DRAM.Add(&out.DRAM)
		m.HostNS += out.HostNS // max core = whole lockstep window
	}
	for i := 0; i < n; i++ {
		if m.Cores[i] == nil {
			m.Cores[i] = &core.Result{Loads: map[int]*core.LoadProf{}, Branches: map[int]*core.BranchProf{}}
		}
		m.Cores[i].SampledWindows = len(set.Points)
		if set.FFPerCore != nil {
			m.Cores[i].FFInsts = set.FFPerCore[i]
		}
	}
	m.SampledWindows = len(set.Points)
	m.FFInsts = set.FFInsts
	m.HostFFNS = set.HostNS
	return m, nil
}
