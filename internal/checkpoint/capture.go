package checkpoint

import (
	"context"
	"sort"
	"time"

	"crisp/internal/branch"
	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/prefetch"
	"crisp/internal/program"
)

// One capture serves a single-core run and a co-scheduled tuple alike.
// The schedule is shared but pace-scaled: every core advances by the
// Skip/Warm/Window instruction budget scaled by its relative co-run speed
// (Set.Pace), so window boundaries align across cores on the trajectory
// the timed co-run actually follows — a fast streaming core retires
// several times more instructions per shared cycle than a latency-bound
// neighbour, and snapshots at equal instruction offsets would pair states
// the co-run never holds simultaneously. Warming interleaves the cores'
// functional streams in pace-scaled round-robin chunks against each
// variant's one shared hierarchy, so the shared LLC's steady-state
// occupancy at each snapshot reflects co-residency — each core holds the
// fraction of the LLC it can defend against its neighbours' insertion
// rate — rather than the full-cache occupancy a solo warm-up would give
// every core.

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

// sliceInsts bounds the instructions a capture fast-forwards between two
// looks at its context. A phase may be billions of instructions long (a
// crispd job's schedule is its client's to choose) and warms into four
// variants at 8 to 25 million a second (bench's traced
// checkpoint.capture_mips on a 2-CPU Xeon, as fast or slow as the host
// runs), so a cancelled capture is gone within three to eight
// milliseconds whatever the schedule, at one ctx.Err() per slice.
const sliceInsts = 64 << 10

// Plan is what a capture warms, besides the schedule.
type Plan struct {
	// Hier, BTBEntries, BTBWays and RASEntries size the warmed structures
	// and must match the configs that will restore the set.
	Hier                            cache.HierConfig
	BTBEntries, BTBWays, RASEntries int
	// Variants maps each variant's name (VariantName of its per-core
	// prefetcher kinds) to one fresh prefetcher per core, nil for a core
	// that runs without one; each is trained in place against its core's
	// view of the variant's hierarchy.
	Variants map[string][]prefetch.Prefetcher
	// Shared selects WarmDataShared: a co-scheduled capture propagates
	// store dirtiness into the shared LLC so restored lockstep windows
	// reproduce writeback bus traffic (see Hierarchy.WarmDataShared).
	Shared bool
	// Pace holds each core's relative co-run speed (nil = all 1.0; see
	// Set.Pace); entries are clamped to [minPace, 1].
	Pace []float64

	slice uint64 // instructions between looks at ctx; 0 is sliceInsts
}

// liveVariant is one variant's warming state on one core during capture:
// the core's view hier of the variant's system sys, which the snapshot
// freezes, and the core's prefetcher.
type liveVariant struct {
	name string
	sys  *cache.SharedHierarchy
	hier *cache.Hierarchy
	pf   prefetch.Prefetcher
}

// warmer streams one core's functional trace into its warming structures,
// mirroring the core frontend's training policy (TAGE on conditionals,
// BTB insert-on-miss for taken non-returns, RAS on call/ret) without
// charging any statistics that the detailed window would report. Each
// data access drives every variant: a demand touch, the variant's
// prefetcher trained with the same (pc, addr, hit) triple the detailed
// L1D would deliver, and the suggested lines installed tags-only, so each
// variant's cache content includes the prefetched-line population a
// steady-state run of that kind would hold.
type warmer struct {
	prog     *program.Program
	variants []liveVariant
	bp       *branch.TAGE
	btb      *branch.BTB
	ras      *branch.RAS
	shared   bool // see Plan.Shared
}

// WarmInstLine warms the one L1I every variant's view of this core points
// at (see Capture) through the first variant, and hands a line it missed
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

// captureCore is one core of a capture pass: its emulator, the warmer its
// stream feeds, its pace and the instructions it has executed so far.
type captureCore struct {
	em   *emu.Emulator
	w    *warmer
	pace float64
	ff   uint64
}

// Capture runs the functional pass over ems (one emulator per core,
// positioned at its workload entry with its image loaded) and returns the
// checkpoint Set for the schedule. Warming state is continuous across the
// whole pass: per window, every core runs its pace-scaled share of the
// skip phase unobserved and of the warm phase into its warmer; then,
// unless ctx was cancelled or a core's program halted, every core's state
// and every variant is snapshotted; then the window phase runs warmed
// too, since the detailed run covers it from the restored state and the
// next point's state must include it. Later windows thus see the
// accumulated history a real execution would have.
//
// Each variant warms one n-core hierarchy. With more than one variant, a
// core's views of them share one L1I: what an L1I holds follows from the
// core's code-line stream alone, the same for every variant, so warming k
// would write k identical copies; the snapshot's Freeze still gives each
// Variant its own. L1D cannot be shared the same way: every prefetcher
// trains on its hits and installs into it.
//
// The pass looks at ctx every sliceInsts instructions, and on cancellation
// returns (nil, ctx.Err()), the partial capture discarded.
func Capture(ctx context.Context, progs []*program.Program, ems []*emu.Emulator, plan Plan, p Params) (*Set, error) {
	start := time.Now()
	n := len(ems)
	slice := plan.slice
	if slice == 0 {
		slice = sliceInsts
	}
	names := make([]string, 0, len(plan.Variants))
	for name := range plan.Variants {
		names = append(names, name)
	}
	sort.Strings(names)
	systems := make([]*cache.SharedHierarchy, len(names))
	for j := range systems {
		systems[j] = cache.NewSharedHierarchy(plan.Hier, n)
	}
	set := &Set{Hier: plan.Hier, Cores: n, Images: make([]*emu.Memory, n),
		Pace: make([]float64, n), WindowInsts: make([]uint64, n), FFPerCore: make([]uint64, n)}
	cores := make([]captureCore, n)
	for i, em := range ems {
		pace := 1.0
		if plan.Pace != nil {
			pace = plan.Pace[i]
		}
		if pace > 1 || pace != pace { // also catches NaN
			pace = 1
		}
		set.Pace[i] = max(pace, minPace)
		set.WindowInsts[i] = scalePace(p.Window, set.Pace[i])
		set.Images[i] = em.Mem().Snapshot()
		w := &warmer{
			prog:   progs[i],
			bp:     branch.NewTAGE(branch.DefaultTAGELogBase, branch.DefaultTAGELogTagged),
			btb:    branch.NewBTB(plan.BTBEntries, plan.BTBWays),
			ras:    branch.NewRAS(plan.RASEntries),
			shared: plan.Shared,
		}
		for j, name := range names {
			v := liveVariant{name: name, sys: systems[j], hier: systems[j].Views[i], pf: plan.Variants[name][i]}
			if j > 0 {
				v.hier.L1I = w.variants[0].hier.L1I
			}
			w.variants = append(w.variants, v)
		}
		cores[i] = captureCore{em: em, w: w, pace: set.Pace[i]}
	}

	for k := 0; k < p.Count; k++ {
		runPhase(ctx, cores, p.Skip, false, slice)
		set.WarmInsts += runPhase(ctx, cores, p.Warm, true, slice)
		if ctx.Err() != nil || anyDone(cores) {
			break
		}
		pt := &Point{Cores: make([]*CoreState, n), Variants: make(map[string]*Variant, len(names))}
		for i := range cores {
			c := &cores[i]
			pt.Cores[i] = &CoreState{PC: c.em.PC(), Regs: c.em.Regs(), Mem: c.em.Mem().Snapshot(),
				BP: c.w.bp.Clone(), BTB: c.w.btb.Clone(), RAS: c.w.ras.Clone(), FFInsts: c.ff}
		}
		for j, name := range names {
			v := &Variant{Hier: systems[j].Freeze(), PFs: make([]prefetch.Prefetcher, n)}
			for i := range cores {
				if pf := cores[i].w.variants[j].pf; pf != nil {
					v.PFs[i] = prefetch.Clone(pf)
				}
			}
			pt.Variants[name] = v
		}
		set.Points = append(set.Points, pt)
		set.WarmInsts += runPhase(ctx, cores, p.Window, true, slice)
	}
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

// anyDone reports whether a core's program has halted: a lockstep window
// needs every core live.
func anyDone(cores []captureCore) bool {
	for i := range cores {
		if cores[i].em.Done() {
			return true
		}
	}
	return false
}

// fastForward runs limit instructions on em streamed into w (nil:
// unobserved), as slices of at most slice instructions with ctx looked at
// before each. The code-line dedup state carries from slice to slice, so
// w sees one stream however the run is cut: the slice size is not part of
// the captured bytes. It returns the instructions executed, short of limit
// when the program halted or ctx was cancelled.
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

// runPhase moves every live core forward by its pace-scaled share of
// insts, through fastForward in slices of at most slice instructions. With
// more than one core a warmed phase goes round-robin in pace-scaled chunks
// of interleaveChunk, so the shared LLC sees the streams mixed at the
// co-run's rate ratio right up to the snapshot: scaling both the share and
// the chunk, every core exhausts its share after the same number of
// rounds. A lone core, and every unwarmed phase, runs the phase as one
// chunk: the single-core code-line dedup state spans the phase, and
// unwarmed streams cannot interact. It returns the instructions warmed.
func runPhase(ctx context.Context, cores []captureCore, insts uint64, warm bool, slice uint64) (warmed uint64) {
	left := make([]uint64, len(cores))
	for i := range cores {
		left[i] = scalePace(insts, cores[i].pace)
	}
	for advanced := true; advanced; {
		advanced = false
		for i := range cores {
			c := &cores[i]
			if left[i] == 0 || c.em.Done() {
				continue
			}
			step := left[i]
			var w emu.Warmer
			if warm {
				w = c.w
				if len(cores) > 1 {
					step = min(step, scalePace(interleaveChunk, c.pace))
				}
			}
			done := fastForward(ctx, c.em, step, w, slice)
			c.ff += done
			if warm {
				warmed += done
			}
			left[i] -= step
			advanced = advanced || done > 0
		}
	}
	return warmed
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
