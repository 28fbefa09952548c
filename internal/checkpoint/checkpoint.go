// Package checkpoint implements the sampled-simulation checkpoint layer:
// one functional fast-forward pass over n co-scheduled workloads (one, for
// a single-core run) produces a Set of Points, each snapshotting every
// core's architectural state (PC, registers, copy-on-write memory pages)
// and warmed frontend (TAGE, BTB, RAS), plus the warmed caches and
// prefetcher training of every variant the pass warmed, at a
// detailed-window start.
//
// A variant is a per-core prefetcher-kind tuple: a one-core set warms one
// per kind side by side, a co-scheduled set the one tuple its cores run.
// The Set is the unit of cross-config sharing: the ooo/crisp/random
// scheduler configs (and, one core, every prefetcher kind) of one
// workload restore from the same Set, so the functional prefix that
// full-detail simulation repeats per config is executed exactly once.
// Restores hand out fresh clones, so concurrent runs never observe each
// other's mutations.
package checkpoint

import (
	"errors"
	"fmt"
	"strings"

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

// VariantName names the variant of a per-core prefetcher-kind tuple: the
// kind itself for one core, the kinds joined by commas for more.
func VariantName(kinds []string) string { return strings.Join(kinds, ",") }

// Variant is the warmed state that depends on the prefetcher
// configuration: the memory system's warmed lines (prefetched lines change
// cache content, and resident prefetched lines are what dedups most later
// suggestions in a steady-state run; in a co-scheduled set every core's
// prefetch traffic shapes the shared LLC) and each core's prefetcher
// training state (BOP in particular converges over thousands of training
// misses, so a cold instance inside a short window badly overstates
// prefetch traffic). Branch-predictor and architectural state are
// prefetcher-independent and live on the Point's cores.
type Variant struct {
	Hier *cache.Template       // every core's L1s and the LLC, warmed
	PFs  []prefetch.Prefetcher // per core; nil for a core without a prefetcher
}

// CoreState is one core of a Point: architectural state plus the
// prefetcher-independent warmed frontend structures, all immutable
// templates after capture.
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

	FFInsts uint64 // this core's functional instructions to reach the point
}

// Point is one restorable checkpoint: every core's state at an aligned
// window boundary, plus the warmed caches and prefetchers of every
// variant. Its fields are immutable templates after capture — Restore
// clones them — so one Point may serve any number of concurrent detailed
// runs.
type Point struct {
	Cores    []*CoreState
	Variants map[string]*Variant // by VariantName

	unattached bool // decoded, and no core's Mem is laid over its image yet
}

// MultiPoint is Point under its co-scheduled name, kept with MultiSet
// until the benchmark stops naming the twin types (ROADMAP item 9(iii)).
type MultiPoint = Point

// Restored is the per-window state handed out by RestoreVariant: fresh
// clones the lockstep window may mutate freely, indexed by core.
type Restored struct {
	Ems  []*emu.Emulator
	Hier *cache.SharedHierarchy
	BPs  []*branch.TAGE
	BTBs []*branch.BTB
	RASs []*branch.RAS
}

// RestoreVariant clones the point's named variant for one detailed
// lockstep window. progs[i] must be position-identical to the program
// core i was captured with (CRISP's critical-tagged clone qualifies: tags
// do not change functional behaviour or instruction addresses). Each
// core's warmed prefetcher clone is attached to its private L1D view.
//
// Safe for concurrent use: every core's memory snapshot is pristine (all
// pages shared), so re-snapshotting it performs no writes, and the
// structure clones only read their templates.
func (p *Point) RestoreVariant(progs []*program.Program, variant string) (Restored, error) {
	if p.unattached {
		return Restored{}, errUnattached
	}
	v := p.Variants[variant]
	if v == nil {
		return Restored{}, fmt.Errorf("checkpoint: no warmed variant for prefetcher kind %q", variant)
	}
	n := len(p.Cores)
	if len(progs) != n {
		return Restored{}, fmt.Errorf("checkpoint: %d programs for a %d-core point", len(progs), n)
	}
	sh := v.Hier.Restore()
	st := Restored{
		Ems:  make([]*emu.Emulator, n),
		Hier: sh,
		BPs:  make([]*branch.TAGE, n),
		BTBs: make([]*branch.BTB, n),
		RASs: make([]*branch.RAS, n),
	}
	for i, cs := range p.Cores {
		if pf := v.PFs[i]; pf != nil {
			sh.Views[i].L1D.SetPrefetcher(prefetch.Clone(pf))
		}
		st.Ems[i] = emu.Resume(progs[i], cs.Mem.Snapshot(), cs.PC, cs.Regs)
		st.BPs[i] = cs.BP.Clone()
		st.BTBs[i] = cs.BTB.Clone()
		st.RASs[i] = cs.RAS.Clone()
	}
	return st, nil
}

// Restore is RestoreVariant of a one-core point, the entry the benchmark
// calls, kept until it stops calling it (ROADMAP item 9(iii)).
func (p *Point) Restore(prog *program.Program, pfKind string) (Restored, error) {
	return p.RestoreVariant([]*program.Program{prog}, pfKind)
}

// errUnattached is what restoring from a decoded set returns until the set
// has been attached to its workload images.
var errUnattached = errors.New("checkpoint: set is not attached to its workload image")

// Set is the product of one capture pass: the aligned checkpoints of an
// n-core workload tuple under one schedule, plus the host cost of
// producing them. Points may be fewer than Params.Count if any core's
// program halted (a lockstep window needs every core live). Every
// per-core slice has Cores entries.
type Set struct {
	Points []*Point
	Hier   cache.HierConfig // geometry the caches were warmed with
	Cores  int

	// Images holds the memory each core's points descend from: the capture
	// forks each emulator's before the first instruction (a caller whose
	// emulators had already run may put earlier forks here, see sim's
	// multi-core capture). Every page a point has not written since is the
	// very page its image holds, which is what lets the codec store a set
	// as a delta over them. A decoded set has nil Images until Attach.
	Images []*emu.Memory
	// imageIDs is what a decoded set knows of its images: Attach checks
	// the images it is handed against them, and re-encoding writes them
	// back.
	imageIDs []emu.ImageID

	// Pace is each core's relative co-run speed (max = 1.0; 1 for a lone
	// core), measured by a calibration window before a co-scheduled
	// capture. Every per-core phase budget — skip, warm, window — and the
	// warming interleave chunk are scaled by it, so the functional streams
	// mix in the shared LLC at the rate ratio the timed co-run sustains and
	// the snapshots walk the co-run's real trajectory through per-core
	// instruction counts. Without pacing a 1:1 instruction interleave
	// under-weights a fast streaming core's insertion pressure by its
	// speed advantage, handing the slow core more shared-cache occupancy
	// than it can defend in a timed run.
	Pace []float64

	// WindowInsts is the per-core detailed-window budget (Params.Window
	// scaled by Pace) — the MaxInsts each restored core runs per window.
	// With budgets proportional to co-run speeds the cores finish each
	// window together, so windows measure the co-located phase rather
	// than a mostly-solo drain tail.
	WindowInsts []uint64

	FFInsts   uint64   // functional instructions summed across cores
	FFPerCore []uint64 // per-core functional instruction totals
	// WarmInsts counts the instructions streamed through the warmers
	// across all cores (warm and window phases; the skip phases execute
	// unobserved). It is in-process capture observability, not restore
	// state, so the codec does not persist it: sets decoded from the store
	// report zero.
	WarmInsts uint64
	HostNS    int64 // host wall time of the capture
}

// MultiSet is Set under the name the benchmark imports, kept until it
// stops naming it (ROADMAP item 9(iii)).
type MultiSet = Set

// Attach lays a decoded set's points over images, the memory each core's
// workload builds for the input the set was captured from, after checking
// every image against the page count and content checksum the set was
// stored with. A core that had written nothing at a point shares its
// image's page table; the others share its pages. The set is restorable
// afterwards; on an error it is unchanged. Attaching is for decoded sets:
// a captured or attached set is refused.
func (s *Set) Attach(images ...*emu.Memory) error {
	if s.Images != nil {
		return errors.New("checkpoint: set already has its images")
	}
	if len(images) != s.Cores {
		return fmt.Errorf("checkpoint: %d images for a %d-core set", len(images), s.Cores)
	}
	for i, image := range images {
		if got, want := image.ID(), at(s.imageIDs, i, emu.ImageID{}); got != want {
			return fmt.Errorf("checkpoint: core %d: image has %d pages, checksum %#x; the set was captured over %d pages, checksum %#x",
				i, got.Pages, got.Sum, want.Pages, want.Sum)
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
