package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"time"

	"crisp/internal/branch"
	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/prefetch"
	"crisp/internal/program"
)

// Multi-core checkpointing: one functional co-scheduled pass over n
// workloads produces a MultiSet whose points restore into lockstep
// detailed windows over a shared LLC and DRAM.
//
// The schedule is shared but pace-scaled: every core advances by the
// Skip/Warm/Window instruction budget scaled by its relative co-run
// speed (MultiSet.Pace), so window boundaries align across cores on the
// trajectory the timed co-run actually follows — a fast streaming core
// retires several times more instructions per shared cycle than a
// latency-bound neighbour, and snapshots at equal instruction offsets
// would pair states the co-run never holds simultaneously. Warming
// interleaves the cores' functional streams in pace-scaled round-robin
// chunks against ONE shared hierarchy, so the shared LLC's steady-state
// occupancy at each snapshot reflects co-residency — each core holds
// the fraction of the LLC it can defend against its neighbours'
// insertion rate — rather than the full-cache occupancy a solo warm-up
// would give every core.

// interleaveChunk is the per-core instruction granularity of the
// round-robin warming interleave, before pace scaling. Small enough that
// no core streams a window-sized burst into the shared LLC unopposed,
// large enough that the fast-forward loop's per-switch overhead stays
// negligible.
const interleaveChunk = 4096

// minPace floors the per-core pace so a crawling core still advances:
// budgets and chunks scaled below this would round toward zero and stall
// the capture (and a window with a handful of instructions measures
// nothing).
const minPace = 0.02

// CoreState is one core's slice of a MultiPoint, and the core a Point
// embeds: architectural state plus the prefetcher-independent warmed
// frontend structures, all immutable templates after capture.
type CoreState struct {
	PC   int
	Regs [isa.NumRegs]int64
	// Mem is a copy-on-write snapshot, never written directly. On a point
	// of a decoded set it holds only the pages the run had written by this
	// point, until the set's Attach lays them over the workload image.
	Mem *emu.Memory

	BP  *branch.TAGE
	BTB *branch.BTB
	RAS *branch.RAS
	PF  prefetch.Prefetcher // warmed in place on this core's view; nil = none

	FFInsts uint64 // this core's functional instructions to reach the point
}

// MultiPoint is one restorable co-scheduled checkpoint: every core's
// state at an aligned window boundary, plus the shared hierarchy warmed
// by the interleaved streams (per-core private L1s and the contended
// LLC in one structure).
type MultiPoint struct {
	Cores []*CoreState
	Hier  *cache.Template // warmed lines; Restore builds a hierarchy from them

	unattached bool // decoded, and no core's Mem is laid over its image yet
}

// MultiRestored is the per-window state handed out by
// MultiPoint.Restore: fresh clones the lockstep window may mutate
// freely, indexed by core.
type MultiRestored struct {
	Ems  []*emu.Emulator
	Hier *cache.SharedHierarchy
	BPs  []*branch.TAGE
	BTBs []*branch.BTB
	RASs []*branch.RAS
}

// Restore clones the point for one detailed lockstep window. progs[i]
// must be position-identical to the program core i was captured with
// (CRISP's critical-tagged clone qualifies). Each core's warmed
// prefetcher clone is attached to its private L1D view. Safe for
// concurrent use, like Point.Restore.
func (p *MultiPoint) Restore(progs []*program.Program) (MultiRestored, error) {
	if p.unattached {
		return MultiRestored{}, errUnattached
	}
	n := len(p.Cores)
	if len(progs) != n {
		return MultiRestored{}, fmt.Errorf("checkpoint: %d programs for a %d-core point", len(progs), n)
	}
	sh := p.Hier.Restore()
	st := MultiRestored{
		Ems:  make([]*emu.Emulator, n),
		Hier: sh,
		BPs:  make([]*branch.TAGE, n),
		BTBs: make([]*branch.BTB, n),
		RASs: make([]*branch.RAS, n),
	}
	for i, cs := range p.Cores {
		if cs.PF != nil {
			sh.Views[i].L1D.SetPrefetcher(prefetch.Clone(cs.PF))
		}
		st.Ems[i] = emu.Resume(progs[i], cs.Mem.Snapshot(), cs.PC, cs.Regs)
		st.BPs[i] = cs.BP.Clone()
		st.BTBs[i] = cs.BTB.Clone()
		st.RASs[i] = cs.RAS.Clone()
	}
	return st, nil
}

// MultiSet is the product of one co-scheduled capture pass: the aligned
// checkpoints of an n-core workload tuple under one schedule. Points
// may be fewer than Params.Count if any core's program halted (the
// lockstep window needs every core live).
type MultiSet struct {
	Points []*MultiPoint
	Hier   cache.HierConfig // geometry the shared hierarchy was warmed with
	Cores  int

	// Images holds the memory each core's points descend from, as
	// Set.Image does for one core; nil on a decoded set until Attach.
	Images   []*emu.Memory
	imageIDs []emu.ImageID // per core, as Set.imageID

	// PFKinds names the prefetcher kind warmed into each core's view;
	// restores for a different per-core prefetcher tuple must recapture
	// (the shared-LLC content depends on every core's prefetch traffic).
	PFKinds []string

	// Pace is each core's relative co-run speed (max = 1.0), measured by
	// a calibration window before capture. Every per-core phase budget —
	// skip, warm, window — and the warming interleave chunk are scaled by
	// it, so the functional streams mix in the shared LLC at the rate
	// ratio the timed co-run sustains and the snapshots walk the co-run's
	// real trajectory through per-core instruction counts. Without pacing
	// a 1:1 instruction interleave under-weights a fast streaming core's
	// insertion pressure by its speed advantage, handing the slow core
	// more shared-cache occupancy than it can defend in a timed run.
	Pace []float64

	// WindowInsts is the per-core detailed-window budget (Params.Window
	// scaled by Pace) — the MaxInsts each restored core runs per window.
	// With budgets proportional to co-run speeds the cores finish each
	// window together, so windows measure the co-located phase rather
	// than a mostly-solo drain tail.
	WindowInsts []uint64

	FFInsts   uint64   // functional instructions summed across cores
	FFPerCore []uint64 // per-core functional instruction totals
	// WarmInsts counts instructions streamed through the warmers across
	// all cores (warm + window phases). Like Set.WarmInsts it is
	// in-process observability and is not persisted by the codec.
	WarmInsts uint64
	HostNS    int64 // host wall time of the capture
}

// Attach is Set.Attach for a co-scheduled set: images[i] is the memory core
// i's workload builds.
func (s *MultiSet) Attach(images []*emu.Memory) error {
	if s.Images != nil {
		return errors.New("checkpoint: set already has its images")
	}
	if len(images) != s.Cores {
		return fmt.Errorf("checkpoint: %d images for a %d-core set", len(images), s.Cores)
	}
	for i, image := range images {
		if err := checkImage(image, s.imageIDs[i]); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	for _, pt := range s.Points {
		for i, cs := range pt.Cores {
			cs.Mem = emu.Overlay(images[i], cs.Mem)
		}
		pt.unattached = false
	}
	s.Images = images
	return nil
}

// scalePace returns insts scaled by the core's pace, floored at 1; at pace
// 1 it is insts exactly, with no round trip through float64.
func scalePace(insts uint64, pace float64) uint64 {
	if pace == 1 {
		return insts
	}
	out := uint64(float64(insts)*pace + 0.5)
	if out == 0 && insts > 0 {
		out = 1
	}
	return out
}

// CaptureMultiContext runs the co-scheduled functional pass over ems (one
// emulator per core, positioned at its workload entry) and returns the
// MultiSet for the given per-core schedule: the n-core pass of capture.
// One shared hierarchy is warmed for the whole pass: skip phases advance
// cores without warming, warm and window phases interleave the cores'
// streams in pace-scaled round-robin chunks so LLC insertions contend at
// the timed co-run's rate ratio. pfs supplies one fresh prefetcher per
// core (nil for a core that runs without one), trained in place against
// that core's view, and pfKinds their names, which the set records as
// PFKinds. pace holds each core's relative co-run speed (nil = all 1.0;
// see MultiSet.Pace); entries are clamped to [minPace, 1]. The pass looks
// at ctx before every chunk, and on cancellation returns (nil,
// ctx.Err()), the partial capture discarded.
func CaptureMultiContext(ctx context.Context, progs []*program.Program, ems []*emu.Emulator, hcfg cache.HierConfig, btbEntries, btbWays, rasEntries int, pfKinds []string, pfs []prefetch.Prefetcher, p Params, pace []float64) (*MultiSet, error) {
	start := time.Now()
	n := len(ems)
	sh := cache.NewSharedHierarchy(hcfg, n)
	set := &MultiSet{Hier: hcfg, Cores: n, PFKinds: pfKinds, FFPerCore: make([]uint64, n),
		Pace: make([]float64, n), WindowInsts: make([]uint64, n), Images: make([]*emu.Memory, n)}
	cores := make([]captureCore, n)
	for i, em := range ems {
		pc := 1.0
		if pace != nil {
			pc = pace[i]
		}
		if pc > 1 || pc != pc { // also catches NaN
			pc = 1
		}
		pc = max(pc, minPace)
		set.Pace[i] = pc
		set.WindowInsts[i] = scalePace(p.Window, pc)
		set.Images[i] = em.Mem().Snapshot()
		w := newWarmer(progs[i], btbEntries, btbWays, rasEntries)
		w.variants = []liveVariant{{hier: sh.Views[i], pf: pfs[i]}}
		w.shared = true
		cores[i] = captureCore{em: em, w: w, pace: pc}
	}
	set.WarmInsts = capture(ctx, cores, p, sliceInsts, func() {
		pt := &MultiPoint{Hier: sh.Freeze(), Cores: make([]*CoreState, n)}
		for i := range cores {
			cs := snapshotCore(cores[i].em, cores[i].w, cores[i].ff)
			if pfs[i] != nil {
				cs.PF = prefetch.Clone(pfs[i])
			}
			pt.Cores[i] = &cs
		}
		set.Points = append(set.Points, pt)
	})
	for i := range cores {
		set.FFPerCore[i] = cores[i].ff
		set.FFInsts += cores[i].ff
	}
	set.HostNS = time.Since(start).Nanoseconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return set, nil
}
