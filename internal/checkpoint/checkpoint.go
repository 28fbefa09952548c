// Package checkpoint implements the sampled-simulation checkpoint layer:
// one functional fast-forward pass over a workload produces a Set of
// Points, each snapshotting architectural state (PC, registers,
// copy-on-write memory pages) plus warmed long-lived microarchitectural
// state (cache tags, TAGE, BTB, RAS, prefetcher training) at a
// detailed-window start.
//
// The Set is the unit of cross-config sharing: the ooo/crisp/random
// scheduler configs (and every prefetcher variant) of one workload
// restore from the same Set, so the functional prefix that full-detail
// simulation repeats per config is executed exactly once. Restores hand
// out fresh clones, so concurrent runs never observe each other's
// mutations.
package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"crisp/internal/branch"
	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/prefetch"
	"crisp/internal/program"
)

// Params describes the sampling schedule: Count windows, each preceded by
// a Skip phase (pure fast-forward, no warming) and a Warm phase
// (fast-forward streaming into cache-tag, branch-predictor, and
// prefetcher warming), followed by a Window-instruction detailed region.
// The detailed region is also executed functionally (with warming) by the
// capture pass so the next window's state includes it.
type Params struct {
	Skip   uint64
	Warm   uint64
	Window uint64
	Count  int
}

// Total returns the instruction budget the schedule covers.
func (p Params) Total() uint64 { return (p.Skip + p.Warm + p.Window) * uint64(p.Count) }

// Variant is the warmed state that depends on the prefetcher
// configuration: the cache hierarchy (prefetched lines change cache
// content, and resident prefetched lines are what dedups most later
// suggestions in a steady-state run) and the prefetcher's own training
// state (BOP in particular converges over thousands of training misses,
// so a cold instance inside a short window badly overstates prefetch
// traffic). Branch-predictor and architectural state are
// prefetcher-independent and live on the Point directly.
type Variant struct {
	Hier *cache.Hierarchy
	PF   prefetch.Prefetcher // nil when the kind runs without a prefetcher
}

// Point is one restorable checkpoint: the architectural and warmed
// microarchitectural state at a detailed-window start. Its fields are
// immutable templates after capture — Restore clones them — so one Point
// may serve any number of concurrent detailed runs.
type Point struct {
	PC   int
	Regs [isa.NumRegs]int64
	// Mem is a copy-on-write snapshot, never written directly. On a point
	// of a decoded set it holds only the pages the run had written by this
	// point, until Set.Attach lays them over the workload image.
	Mem *emu.Memory

	unattached bool // decoded, and Mem is not yet laid over the image

	Variants map[string]*Variant // warmed caches+prefetcher per kind
	BP       *branch.TAGE
	BTB      *branch.BTB
	RAS      *branch.RAS

	FFInsts uint64 // instructions executed functionally to reach this point
}

// Restored is the per-run state handed out by Point.Restore: fresh copies
// the detailed window may mutate freely. The hierarchy carries the warmed
// tag/LRU state of the requested prefetcher variant, with a clone of that
// variant's warmed prefetcher already attached.
type Restored struct {
	Em   *emu.Emulator
	Hier *cache.Hierarchy
	BP   *branch.TAGE
	BTB  *branch.BTB
	RAS  *branch.RAS
}

// Restore clones the checkpoint's pfKind variant for one detailed window
// over prog. The program must be position-identical to the one the
// checkpoint was captured with (CRISP's critical-tagged clone qualifies:
// tags do not change functional behaviour or instruction addresses).
//
// Safe for concurrent use: the point's memory snapshot is pristine (all
// pages shared), so re-snapshotting it performs no writes, and the
// structure clones only read their templates.
func (p *Point) Restore(prog *program.Program, pfKind string) (Restored, error) {
	if p.unattached {
		return Restored{}, errUnattached
	}
	v := p.Variants[pfKind]
	if v == nil {
		return Restored{}, fmt.Errorf("checkpoint: no warmed variant for prefetcher kind %q", pfKind)
	}
	hier := v.Hier.Clone()
	if v.PF != nil {
		hier.L1D.SetPrefetcher(prefetch.Clone(v.PF))
	}
	return Restored{
		Em:   emu.Resume(prog, p.Mem.Snapshot(), p.PC, p.Regs),
		Hier: hier,
		BP:   p.BP.Clone(),
		BTB:  p.BTB.Clone(),
		RAS:  p.RAS.Clone(),
	}, nil
}

// errUnattached is what restoring from a decoded set returns until the set
// has been attached to its workload image.
var errUnattached = errors.New("checkpoint: set is not attached to its workload image")

// Set is the product of one capture pass: the checkpoints of a
// (workload, input, schedule) triple, plus the host cost of producing
// them. Points may be fewer than Params.Count if the program halted.
type Set struct {
	Points []*Point
	Hier   cache.HierConfig // geometry the caches were warmed with

	// Image is the memory every point descends from: the capture forks its
	// emulator's before the first instruction (a caller whose emulator had
	// already run may put an earlier fork here, see sim's multi-core
	// capture). Every page a point has not written since is the very page
	// Image holds, which is what lets the codec store a set as a delta
	// over it. A decoded set has a nil Image until Attach.
	Image *emu.Memory
	// imageID is what a decoded set knows of its image: Attach checks the
	// image it is handed against it, and re-encoding writes it back.
	imageID emu.ImageID

	FFInsts uint64 // total instructions executed functionally by the capture
	// WarmInsts counts the instructions streamed through the warmer (warm
	// and window phases; the skip phases execute unobserved). It is
	// in-process capture observability, not restore state, so the codec
	// does not persist it: sets decoded from the store report zero.
	WarmInsts uint64
	HostNS    int64 // host wall time of the capture (fast-forward + snapshots)
}

// Attach lays a decoded set's points over image, the memory the workload
// builds for the input the set was captured from, after checking it against
// the page count and content checksum the set was stored with. A point that
// had written nothing shares image's page table; the others share its
// pages. The set is restorable afterwards; on an error it is unchanged.
// Attaching is for decoded sets: a captured or attached set is refused.
func (s *Set) Attach(image *emu.Memory) error {
	if s.Image != nil {
		return errors.New("checkpoint: set already has its image")
	}
	if err := checkImage(image, s.imageID); err != nil {
		return err
	}
	for _, pt := range s.Points {
		pt.Mem, pt.unattached = emu.Overlay(image, pt.Mem), false
	}
	s.Image = image
	return nil
}

// checkImage reports an image that is not the one a set was stored over.
func checkImage(image *emu.Memory, want emu.ImageID) error {
	if got := image.ID(); got != want {
		return fmt.Errorf("checkpoint: image has %d pages, checksum %#x; the set was captured over %d pages, checksum %#x",
			got.Pages, got.Sum, want.Pages, want.Sum)
	}
	return nil
}

// liveVariant is one prefetcher kind's warming state during capture.
type liveVariant struct {
	name string
	hier *cache.Hierarchy
	pf   prefetch.Prefetcher
}

// warmer streams the functional trace into the warming structures,
// mirroring the core frontend's training policy (TAGE on conditionals,
// BTB insert-on-miss for taken non-returns, RAS on call/ret) without
// charging any statistics that the detailed window would report. Each
// data access drives every variant: a tags-only demand touch, the
// variant's prefetcher trained with the same (pc, addr, hit) triple the
// detailed L1D would deliver, and the suggested lines installed
// tags-only, so each variant's cache content includes the prefetched-line
// population a steady-state run of that kind would hold.
type warmer struct {
	prog     *program.Program
	variants []liveVariant
	bp       *branch.TAGE
	btb      *branch.BTB
	ras      *branch.RAS
	// shared selects WarmDataShared: the co-scheduled capture propagates
	// store dirtiness into the shared LLC so restored lockstep windows
	// reproduce writeback bus traffic (see Hierarchy.WarmDataShared).
	shared bool
}

// WarmInstLine warms the one L1I every variant's hierarchy points at (see
// newCaptureWarmer) through the first variant, and hands a line it missed
// to the other variants' LLCs, which the prefetchers have made differ.
func (w *warmer) WarmInstLine(lineAddr uint64) {
	if len(w.variants) == 0 || w.variants[0].hier.WarmInst(lineAddr) {
		return
	}
	for i := 1; i < len(w.variants); i++ {
		w.variants[i].hier.WarmInstLLC(lineAddr)
	}
}

func (w *warmer) WarmData(pc int, addr uint64, store bool) {
	pcv := uint64(pc)
	if store {
		pcv = cache.NoPC // stores reach the prefetcher unattributed
	}
	for i := range w.variants {
		v := &w.variants[i]
		var hit bool
		if w.shared {
			hit = v.hier.WarmDataShared(addr, store)
		} else {
			hit = v.hier.WarmData(addr, store)
		}
		if v.pf == nil {
			continue
		}
		for _, t := range v.pf.OnAccess(pcv, addr, hit) {
			v.hier.WarmPrefetch(t)
		}
	}
}

func (w *warmer) WarmBranch(pc int, in *isa.Inst, taken bool, nextPC int) {
	pcAddr := w.prog.ByteAddr(pc)
	switch in.Op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		w.bp.PredictAndTrain(pcAddr, taken)
	case isa.OpCall:
		w.ras.Push(pc + 1)
	case isa.OpRet:
		w.ras.Pop()
	}
	if taken && in.Op != isa.OpRet {
		if _, ok := w.btb.Lookup(pcAddr); !ok {
			w.btb.Insert(pcAddr, nextPC)
		}
	}
}

// snapshot clones every variant into a Point-ready template map.
func (w *warmer) snapshot() map[string]*Variant {
	out := make(map[string]*Variant, len(w.variants))
	for i := range w.variants {
		v := &w.variants[i]
		sv := &Variant{Hier: v.hier.Clone()}
		if v.pf != nil {
			sv.PF = prefetch.Clone(v.pf)
		}
		out[v.name] = sv
	}
	return out
}

// CaptureContext runs the single functional pass over em (an emulator
// positioned at the workload entry with its image loaded) and returns the
// checkpoint Set for the given schedule. Warming state is continuous
// across the whole pass — skip phases advance without warming, warm and
// window phases stream into it — so later windows see the accumulated
// history a real execution would have. btbEntries/btbWays/rasEntries size
// the warmed frontend structures and must match the core configuration
// that will restore them; pfs supplies one fresh prefetcher per
// configuration kind (nil for a kind that runs without one), each warmed
// against its own cache hierarchy (the instances are trained in place).
// The pass looks at ctx every sliceInsts instructions, and on
// cancellation returns (nil, ctx.Err()), the partial capture discarded.
func CaptureContext(ctx context.Context, prog *program.Program, em *emu.Emulator, hcfg cache.HierConfig, btbEntries, btbWays, rasEntries int, pfs map[string]prefetch.Prefetcher, p Params) (*Set, error) {
	start := time.Now()
	w := newCaptureWarmer(prog, hcfg, btbEntries, btbWays, rasEntries, pfs)
	set := &Set{Hier: hcfg, Image: em.Mem().Snapshot()}
	captureSliced(ctx, em, w, p, set, sliceInsts)
	set.HostNS = time.Since(start).Nanoseconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// newCaptureWarmer assembles the warming state for one capture pass:
// the prefetcher-independent frontend structures plus one cache
// hierarchy per prefetcher kind, sorted by name so capture order (and
// hence any warming that iterated variants) is deterministic.
//
// The hierarchies share one L1I. What an L1I holds follows from the
// code-line stream alone, which is the same for every variant, so warming
// four would write four identical copies; snapshot's Hierarchy.Clone still
// gives each Variant its own. L1D cannot be shared the same way: every
// prefetcher trains on its hits and installs into it.
func newCaptureWarmer(prog *program.Program, hcfg cache.HierConfig, btbEntries, btbWays, rasEntries int, pfs map[string]prefetch.Prefetcher) *warmer {
	w := &warmer{
		prog: prog,
		bp:   branch.NewTAGE(branch.DefaultTAGELogBase, branch.DefaultTAGELogTagged),
		btb:  branch.NewBTB(btbEntries, btbWays),
		ras:  branch.NewRAS(rasEntries),
	}
	for name, pf := range pfs {
		w.variants = append(w.variants, liveVariant{name: name, hier: cache.NewHierarchy(hcfg), pf: pf})
	}
	sort.Slice(w.variants, func(i, j int) bool { return w.variants[i].name < w.variants[j].name })
	for i := range w.variants {
		w.variants[i].hier.L1I = w.variants[0].hier.L1I
	}
	return w
}

// snapshotPoint clones the warmer's state into one restorable Point at
// the emulator's current position.
func snapshotPoint(em *emu.Emulator, w *warmer, ffInsts uint64) *Point {
	return &Point{
		PC:       em.PC(),
		Regs:     em.Regs(),
		Mem:      em.Mem().Snapshot(),
		Variants: w.snapshot(),
		BP:       w.bp.Clone(),
		BTB:      w.btb.Clone(),
		RAS:      w.ras.Clone(),
		FFInsts:  ffInsts,
	}
}

// sliceInsts bounds the instructions a capture fast-forwards between two
// looks at its context. A phase may be billions of instructions long (a
// crispd job's schedule is its client's to choose) and warms into four
// variants at some fourteen million a second (bench's traced
// checkpoint.capture_mips; 9 to 12 on this sandbox's slow days), so a
// cancelled capture is gone within five to ten milliseconds whatever the
// schedule, at one ctx.Err() per slice.
const sliceInsts = 64 << 10

// fastForward runs one phase of the schedule, limit instructions on em
// streamed into w (nil: unobserved), as slices of at most slice
// instructions with ctx looked at before each. The code-line dedup state
// carries from slice to slice, so w sees one stream however the phase is
// cut: the slice size is not part of the captured bytes. It returns the
// instructions executed, short of limit when the program halted or ctx was
// cancelled.
func fastForward(ctx context.Context, em *emu.Emulator, limit uint64, w emu.Warmer, slice uint64) uint64 {
	var n uint64
	lastLine := emu.NoLine
	for n < limit && ctx.Err() == nil {
		step := min(limit-n, slice)
		var done uint64
		done, lastLine = em.FastForwardFrom(step, w, lastLine)
		n += done
		if done < step {
			break // the program halted
		}
	}
	return n
}

// captureSliced is the capture loop: one goroutine, the warm stream
// delivered live through the Warmer interface, each phase cut into slices
// of at most slice instructions (see fastForward).
func captureSliced(ctx context.Context, em *emu.Emulator, w *warmer, p Params, set *Set, slice uint64) {
	for i := 0; i < p.Count; i++ {
		set.FFInsts += fastForward(ctx, em, p.Skip, nil, slice)
		n := fastForward(ctx, em, p.Warm, w, slice)
		set.FFInsts += n
		set.WarmInsts += n
		if ctx.Err() != nil || em.Done() {
			return
		}
		set.Points = append(set.Points, snapshotPoint(em, w, set.FFInsts))
		// Execute the window region functionally too (with warming): the
		// detailed run covers it from the restored state, and the next
		// checkpoint's state must include it.
		n = fastForward(ctx, em, p.Window, w, slice)
		set.FFInsts += n
		set.WarmInsts += n
		if ctx.Err() != nil {
			return
		}
	}
}
