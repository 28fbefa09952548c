package checkpoint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"testing"

	"crisp/internal/branch"
	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/prefetch"
	"crisp/internal/program"
)

// storeProgram streams stores over a buffer with a periodic backward
// branch: exercises the store (dirtiness) warming path and the BTB.
func storeProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder("storestream")
	b.MovI(isa.R(1), 0x8000) // buffer base
	b.MovI(isa.R(5), 128)    // elements
	b.Label("outer")
	b.MovI(isa.R(2), 0)
	b.Label("loop")
	b.Shl(isa.R(6), isa.R(2), 3)
	b.Add(isa.R(6), isa.R(1), isa.R(6))
	b.Load(isa.R(3), isa.R(6), 0)
	b.AddI(isa.R(3), isa.R(3), 1)
	b.Store(isa.R(6), 0, isa.R(3))
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Blt(isa.R(2), isa.R(5), "loop")
	b.Jmp("outer")
	return b.MustBuild()
}

// chaseEmu builds a fresh emulator over the chase program's initialized
// memory (captures consume their emulator, so every capture needs its
// own).
func chaseEmu(t testing.TB, prog *program.Program) *emu.Emulator {
	t.Helper()
	mem := emu.NewMemory()
	for i := int64(0); i < 64; i++ {
		mem.WriteWord(uint64(0x4000+8*i), i)
	}
	return emu.New(prog, mem)
}

// capturePFS builds a fresh per-kind prefetcher map (instances are
// trained in place, so each capture needs its own).
func capturePFS() map[string]prefetch.Prefetcher {
	return map[string]prefetch.Prefetcher{
		"bop":    prefetch.NewBOP(),
		"stride": prefetch.NewStride(256),
		"ghb":    prefetch.NewGHB(512),
		"none":   nil,
	}
}

// refWarmer is the warmer as it stood before the variants shared an L1I,
// kept verbatim as the oracle: every variant owns a whole hierarchy, every
// code line is warmed into each of them, and every data access goes through
// refWarmOne. TestCaptureWarmerMatchesOracle (oracle_test.go: it captures
// registered workloads, which this package cannot import) holds the
// capture's bytes to it.
type refWarmer struct {
	prog     *program.Program
	variants []liveVariant
	bp       *branch.TAGE
	btb      *branch.BTB
	ras      *branch.RAS
	shared   bool
}

func (w *refWarmer) WarmInstLine(lineAddr uint64) {
	for i := range w.variants {
		w.variants[i].hier.WarmInst(lineAddr)
	}
}

func (w *refWarmer) WarmData(pc int, addr uint64, store bool) {
	for i := range w.variants {
		refWarmOne(&w.variants[i], w.shared, pc, addr, store)
	}
}

func refWarmOne(v *liveVariant, shared bool, pc int, addr uint64, store bool) {
	var hit bool
	if shared {
		hit = v.hier.WarmDataShared(addr, store)
	} else {
		hit = v.hier.WarmData(addr, store)
	}
	if v.pf == nil {
		return
	}
	pcv := uint64(pc)
	if store {
		pcv = cache.NoPC // stores reach the prefetcher unattributed
	}
	for _, t := range v.pf.OnAccess(pcv, addr, hit) {
		v.hier.WarmPrefetch(t)
	}
}

func (w *refWarmer) WarmBranch(pc int, in *isa.Inst, taken bool, nextPC int) {
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

func (w *refWarmer) snapshot() map[string]*Variant {
	out := make(map[string]*Variant, len(w.variants))
	for i := range w.variants {
		v := &w.variants[i]
		sv := &Variant{Hier: v.sys.CloneState()}
		if v.pf != nil {
			sv.PF = prefetch.Clone(v.pf)
		}
		out[v.name] = sv
	}
	return out
}

func newRefCaptureWarmer(prog *program.Program, hcfg cache.HierConfig, btbEntries, btbWays, rasEntries int, pfs map[string]prefetch.Prefetcher) *refWarmer {
	w := &refWarmer{
		prog: prog,
		bp:   branch.NewTAGE(branch.DefaultTAGELogBase, branch.DefaultTAGELogTagged),
		btb:  branch.NewBTB(btbEntries, btbWays),
		ras:  branch.NewRAS(rasEntries),
	}
	for name, pf := range pfs {
		sys := cache.NewSharedHierarchy(hcfg, 1)
		w.variants = append(w.variants, liveVariant{name: name, sys: sys, hier: sys.Views[0], pf: pf})
	}
	sort.Slice(w.variants, func(i, j int) bool { return w.variants[i].name < w.variants[j].name })
	return w
}

// refCapture is Capture over a refWarmer, one FastForward a phase (how a
// phase is sliced is TestCaptureSlicedMatchesOracle's subject).
func refCapture(prog *program.Program, em *emu.Emulator, hcfg cache.HierConfig, btbEntries, btbWays, rasEntries int, pfs map[string]prefetch.Prefetcher, p Params) *Set {
	w := newRefCaptureWarmer(prog, hcfg, btbEntries, btbWays, rasEntries, pfs)
	set := &Set{Hier: hcfg, Image: em.Mem().Snapshot()}
	for i := 0; i < p.Count; i++ {
		set.FFInsts += em.FastForward(p.Skip, nil)
		n := em.FastForward(p.Warm, w)
		set.FFInsts += n
		set.WarmInsts += n
		if em.Done() {
			break
		}
		set.Points = append(set.Points, &Point{
			PC:       em.PC(),
			Regs:     em.Regs(),
			Mem:      em.Mem().Snapshot(),
			Variants: w.snapshot(),
			BP:       w.bp.Clone(),
			BTB:      w.btb.Clone(),
			RAS:      w.ras.Clone(),
			FFInsts:  set.FFInsts,
		})
		n = em.FastForward(p.Window, w)
		set.FFInsts += n
		set.WarmInsts += n
	}
	return set
}

// refCaptureSequential is the capture loop as it stood before phases were
// cut into slices, kept verbatim as the oracle: one FastForward call a
// phase, so one code-line dedup state a phase, and cancellation seen only
// between phases.
func refCaptureSequential(ctx context.Context, em *emu.Emulator, w *warmer, p Params, set *Set) {
	for i := 0; i < p.Count; i++ {
		set.FFInsts += em.FastForward(p.Skip, nil)
		n := em.FastForward(p.Warm, w)
		set.FFInsts += n
		set.WarmInsts += n
		if ctx.Err() != nil || em.Done() {
			return
		}
		set.Points = append(set.Points, snapshotPoint(em, w, set.FFInsts))
		// Execute the window region functionally too (with warming): the
		// detailed run covers it from the restored state, and the next
		// checkpoint's state must include it.
		n = em.FastForward(p.Window, w)
		set.FFInsts += n
		set.WarmInsts += n
		if ctx.Err() != nil {
			return
		}
	}
}

// TestCaptureSlicedMatchesOracle: how a phase is cut into slices is not in
// the captured bytes. The chase and the store-stream program, warmed into
// four prefetcher variants, encode to the unsliced oracle's bytes under a
// slice of one instruction, of seven (no multiple of either loop's length
// or of a code line's sixteen instructions), of 8192 and of a whole phase.
// Dropping the code-line dedup state at a slice boundary fails every leg
// but the last: a line the stream was already in reaches WarmInstLine
// again and moves the L1I's recency.
func TestCaptureSlicedMatchesOracle(t *testing.T) {
	p := Params{Skip: 100, Warm: 20_000, Window: 2000, Count: 3}
	hcfg := cache.DefaultHierConfig()
	for _, prog := range []*program.Program{chaseProgram(t), storeProgram(t)} {
		em := chaseEmu(t, prog)
		oracle := &Set{Hier: hcfg, Image: em.Mem().Snapshot()}
		refCaptureSequential(context.Background(), em, newCaptureWarmer(prog, hcfg, 128, 4, 16, capturePFS()), p, oracle)
		if len(oracle.Points) != p.Count {
			t.Fatalf("%s: oracle captured %d points, want %d", prog.Name, len(oracle.Points), p.Count)
		}
		want := EncodeSet(oracle, prog.Name)
		for _, slice := range []uint64{1, 7, 8192, p.Warm} {
			em := chaseEmu(t, prog)
			set := &Set{Hier: hcfg, Image: em.Mem().Snapshot()}
			captureSliced(context.Background(), em, newCaptureWarmer(prog, hcfg, 128, 4, 16, capturePFS()), p, set, slice)
			if !bytes.Equal(EncodeSet(set, prog.Name), want) {
				t.Errorf("%s, slices of %d: the set encodes differently from the unsliced oracle's", prog.Name, slice)
			}
			if want := (p.Warm + p.Window) * uint64(p.Count); set.WarmInsts != want || oracle.WarmInsts != want {
				t.Errorf("%s, slices of %d: WarmInsts = %d (oracle %d), want %d", prog.Name, slice, set.WarmInsts, oracle.WarmInsts, want)
			}
		}
	}
}

// parentMultiSetSHA256 is the sha-256 of the set TestCaptureMultiMatchesParent
// captures, as the commit before this loop's (7ce86b0) encoded it, through
// its sequential path and its pipelined one alike.
const parentMultiSetSHA256 = "680f7072ac10e5772e959403e6bdb8434ba86cf14d487097e49a0ecbd7e2956a"

// TestCaptureMultiMatchesParent: the co-scheduled capture (shared-LLC
// occupancy, store dirtiness, per-core frontends, paced snapshots) still
// produces, byte for byte, the set its predecessor did.
func TestCaptureMultiMatchesParent(t *testing.T) {
	chase, stream := chaseProgram(t), storeProgram(t)
	set, err := CaptureMultiContext(context.Background(),
		[]*program.Program{chase, stream},
		[]*emu.Emulator{chaseEmu(t, chase), emu.New(stream, emu.NewMemory())},
		cache.DefaultHierConfig(), 128, 4, 16, []prefetch.Prefetcher{prefetch.NewBOP(), nil},
		Params{Skip: 50, Warm: 15_000, Window: 1500, Count: 2}, []float64{1.0, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	set.HostNS = 0                        // wall time legitimately differs
	set.PFKinds = []string{"bop", "none"} // the sim layer fills this in
	if got := fmt.Sprintf("%x", sha256.Sum256(EncodeMultiSet(set, "multi-equivalence-key"))); got != parentMultiSetSHA256 {
		t.Errorf("two-core set hashes to %s, the parent commit's to %s", got, parentMultiSetSHA256)
	}
}

// countProgram counts its loop's iterations in r1, three instructions
// each, so a test can read off an emulator how far a capture got.
func countProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder("count")
	b.MovI(isa.R(1), 0)
	b.MovI(isa.R(3), 0x4000)
	b.Label("loop")
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Load(isa.R(2), isa.R(3), 0)
	b.Jmp("loop")
	return b.MustBuild()
}

// cancelAtCheck is a context that cancels itself the nth time it is asked
// for its error: a cancellation that arrives, reproducibly, while the
// capture is inside a phase.
type cancelAtCheck struct {
	context.Context
	cancel context.CancelFunc
	left   int
}

func newCancelAtCheck(n int) *cancelAtCheck {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAtCheck{Context: ctx, cancel: cancel, left: n}
}

func (c *cancelAtCheck) Err() error {
	if c.left--; c.left == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCaptureContextCancel pins the cancellation contract of the
// single-core and the two-core capture: (nil, ctx.Err()) instead of a
// partial Set, both when the context is dead on arrival and when it dies
// inside the first warm phase. In the second case the capture must also
// have stopped there, a few slices (interleave rounds) in, not at the
// phase's end fifty slices later: a loop that looks at ctx only between
// phases fails that.
func TestCaptureContextCancel(t *testing.T) {
	prog := countProgram(t)
	hcfg := cache.DefaultHierConfig()
	p := Params{Warm: 50 * sliceInsts, Window: 1000, Count: 4}
	// executed reads the instructions an emulator ran off the loop counter.
	executed := func(em *emu.Emulator) uint64 { return 3 * uint64(em.Reg(isa.R(1))) }

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		ctx      func() context.Context
		min, max uint64 // per emulator
	}{
		"cancelled before":                  {func() context.Context { return dead }, 0, 0},
		"cancelled in the first warm phase": {func() context.Context { return newCancelAtCheck(3) }, 1, 4 * sliceInsts},
	} {
		em := emu.New(prog, emu.NewMemory())
		set, err := CaptureContext(tc.ctx(), prog, em, hcfg, 128, 4, 16, capturePFS(), p)
		if !errors.Is(err, context.Canceled) || set != nil {
			t.Errorf("%s: capture returned set=%v err=%v, want nil set and context.Canceled", name, set != nil, err)
		}
		if n := executed(em); n < tc.min || n > tc.max {
			t.Errorf("%s: capture executed %d instructions, want %d..%d", name, n, tc.min, tc.max)
		}

		ems := []*emu.Emulator{emu.New(prog, emu.NewMemory()), emu.New(prog, emu.NewMemory())}
		mset, err := CaptureMultiContext(tc.ctx(), []*program.Program{prog, prog}, ems,
			hcfg, 128, 4, 16, []prefetch.Prefetcher{nil, nil}, p, nil)
		if !errors.Is(err, context.Canceled) || mset != nil {
			t.Errorf("%s: two-core capture returned set=%v err=%v, want nil set and context.Canceled", name, mset != nil, err)
		}
		for i, em := range ems {
			if n := executed(em); n < tc.min || n > tc.max {
				t.Errorf("%s: two-core capture executed %d instructions on core %d, want %d..%d", name, n, i, tc.min, tc.max)
			}
		}
	}
}
