package checkpoint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

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

// captureOne is Capture of a one-core set with one variant per named
// prefetcher, warmed tags-only, as the single-core sets are captured.
func captureOne(ctx context.Context, prog *program.Program, em *emu.Emulator, hcfg cache.HierConfig, btbEntries, btbWays, rasEntries int, pfs map[string]prefetch.Prefetcher, p Params) (*Set, error) {
	plan := Plan{Hier: hcfg, BTBEntries: btbEntries, BTBWays: btbWays, RASEntries: rasEntries, Variants: map[string][]prefetch.Prefetcher{}}
	for name, pf := range pfs {
		plan.Variants[name] = []prefetch.Prefetcher{pf}
	}
	return Capture(ctx, []*program.Program{prog}, []*emu.Emulator{em}, plan, p)
}

// captureMulti is Capture of a co-scheduled set: the one variant of the
// cores' prefetcher kinds, warmed with store dirtiness, at the given pace.
func captureMulti(ctx context.Context, progs []*program.Program, ems []*emu.Emulator, hcfg cache.HierConfig, btbEntries, btbWays, rasEntries int, kinds []string, pfs []prefetch.Prefetcher, p Params, pace []float64) (*Set, error) {
	plan := Plan{Hier: hcfg, BTBEntries: btbEntries, BTBWays: btbWays, RASEntries: rasEntries,
		Variants: map[string][]prefetch.Prefetcher{VariantName(kinds): pfs}, Shared: true, Pace: pace}
	return Capture(ctx, progs, ems, plan, p)
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
		sv := &Variant{Hier: v.sys.Freeze(), PFs: make([]prefetch.Prefetcher, 1)}
		if v.pf != nil {
			sv.PFs[0] = prefetch.Clone(v.pf)
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
	set := &Set{Hier: hcfg, Cores: 1, Images: []*emu.Memory{em.Mem().Snapshot()}, Pace: []float64{1}, WindowInsts: []uint64{p.Window}}
	for i := 0; i < p.Count; i++ {
		set.FFInsts += em.FastForward(p.Skip, nil)
		n := em.FastForward(p.Warm, w)
		set.FFInsts += n
		set.WarmInsts += n
		if em.Done() {
			break
		}
		set.Points = append(set.Points, &Point{
			Cores: []*CoreState{{
				PC:      em.PC(),
				Regs:    em.Regs(),
				Mem:     em.Mem().Snapshot(),
				BP:      w.bp.Clone(),
				BTB:     w.btb.Clone(),
				RAS:     w.ras.Clone(),
				FFInsts: set.FFInsts,
			}},
			Variants: w.snapshot(),
		})
		n = em.FastForward(p.Window, w)
		set.FFInsts += n
		set.WarmInsts += n
	}
	set.FFPerCore = []uint64{set.FFInsts}
	return set
}

// refCaptureSequential is the capture loop as it stood before phases were
// cut into slices, kept verbatim as the oracle: one FastForward call a
// phase, so one code-line dedup state a phase, and cancellation seen only
// between phases.
func refCaptureSequential(ctx context.Context, em *emu.Emulator, w *refWarmer, p Params, set *Set) {
	for i := 0; i < p.Count; i++ {
		set.FFInsts += em.FastForward(p.Skip, nil)
		n := em.FastForward(p.Warm, w)
		set.FFInsts += n
		set.WarmInsts += n
		if ctx.Err() != nil || em.Done() {
			return
		}
		set.Points = append(set.Points, &Point{Cores: []*CoreState{{PC: em.PC(), Regs: em.Regs(), Mem: em.Mem().Snapshot(),
			BP: w.bp.Clone(), BTB: w.btb.Clone(), RAS: w.ras.Clone(), FFInsts: set.FFInsts}}, Variants: w.snapshot()})
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
		oracle := &Set{Hier: hcfg, Cores: 1, Images: []*emu.Memory{em.Mem().Snapshot()}, Pace: []float64{1}, WindowInsts: []uint64{p.Window}}
		refCaptureSequential(context.Background(), em, newRefCaptureWarmer(prog, hcfg, 128, 4, 16, capturePFS()), p, oracle)
		if len(oracle.Points) != p.Count {
			t.Fatalf("%s: oracle captured %d points, want %d", prog.Name, len(oracle.Points), p.Count)
		}
		oracle.FFPerCore = []uint64{oracle.FFInsts}
		want := EncodeSet(oracle, prog.Name)
		for _, slice := range []uint64{1, 7, 8192, p.Warm} {
			plan := Plan{Hier: hcfg, BTBEntries: 128, BTBWays: 4, RASEntries: 16, Variants: map[string][]prefetch.Prefetcher{}, slice: slice}
			for name, pf := range capturePFS() {
				plan.Variants[name] = []prefetch.Prefetcher{pf}
			}
			set, err := Capture(context.Background(), []*program.Program{prog}, []*emu.Emulator{chaseEmu(t, prog)}, plan, p)
			if err != nil {
				t.Fatal(err)
			}
			set.HostNS = 0
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
// captures, as container version 5 (one container for every set: per-core
// head fields, the prefetchers inside the named variant) encodes it. The
// version-4 bytes of the co-scheduled container hashed to 2a21a38b…, the
// version-3 bytes (1 KiB pages) to 5561ec0b…, and the version-2 bytes,
// which the commit before this loop's (7ce86b0) wrote through its
// sequential path and its pipelined one alike, to 680f7072…; restored,
// each holds the same lines in the same LRU order, predictors,
// prefetchers and words (the cross-commit checks in PERFLOG.md).
const parentMultiSetSHA256 = "9201ba43e62ab68717e97891a782876856dac6ebd0cfe7e8e916873c9c074a8a"

// TestCaptureMultiMatchesParent: the co-scheduled capture (shared-LLC
// occupancy, store dirtiness, per-core frontends, paced snapshots) still
// produces, byte for byte, the set its predecessor did.
func TestCaptureMultiMatchesParent(t *testing.T) {
	chase, stream := chaseProgram(t), storeProgram(t)
	set, err := captureMulti(context.Background(),
		[]*program.Program{chase, stream},
		[]*emu.Emulator{chaseEmu(t, chase), emu.New(stream, emu.NewMemory())},
		cache.DefaultHierConfig(), 128, 4, 16, []string{"bop", "none"}, []prefetch.Prefetcher{prefetch.NewBOP(), nil},
		Params{Skip: 50, Warm: 15_000, Window: 1500, Count: 2}, []float64{1.0, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	set.HostNS = 0 // wall time legitimately differs
	if got := fmt.Sprintf("%x", sha256.Sum256(EncodeSet(set, "multi-equivalence-key"))); got != parentMultiSetSHA256 {
		t.Errorf("two-core set hashes to %s, the parent commit's to %s", got, parentMultiSetSHA256)
	}
}

// refCaptureMultiContext is CaptureMultiContext as it stood before the
// single-core and the co-scheduled capture became one loop (capture),
// kept verbatim as the oracle of TestCaptureMultiMatchesOracle: its
// advance closure interleaves the warmed phases in pace-scaled chunks,
// each one FastForward with its own code-line dedup state, and cuts the
// unwarmed ones at sliceInsts. It names no prefetcher kinds, as the sim
// layer filled them in then: its points keep their one variant under "",
// which the test renames.
//
// refCaptureMultiContext runs the co-scheduled functional pass over ems (one
// emulator per core, positioned at its workload entry) and returns the
// set for the given per-core schedule. One shared hierarchy is
// warmed for the whole pass: skip phases advance cores without warming,
// warm and window phases interleave the cores' streams in pace-scaled
// round-robin slices so LLC insertions contend at the timed co-run's
// rate ratio. pfs supplies one fresh prefetcher per core (nil for a core
// that runs without one), trained in place against that core's view.
// pace holds each core's relative co-run speed (nil = all 1.0; see
// Set.Pace); entries are clamped to [minPace, 1]. The pass looks at
// ctx between interleave rounds, and on cancellation returns
// (nil, ctx.Err()), the partial capture discarded.
func refCaptureMultiContext(ctx context.Context, progs []*program.Program, ems []*emu.Emulator, hcfg cache.HierConfig, btbEntries, btbWays, rasEntries int, pfs []prefetch.Prefetcher, p Params, pace []float64) (*Set, error) {
	start := time.Now()
	n := len(ems)
	pc := make([]float64, n)
	for i := range pc {
		pc[i] = 1.0
		if pace != nil {
			pc[i] = pace[i]
		}
		if pc[i] > 1 || pc[i] != pc[i] { // also catches NaN
			pc[i] = 1
		}
		if pc[i] < minPace {
			pc[i] = minPace
		}
	}
	sh := cache.NewSharedHierarchy(hcfg, n)
	ws := make([]*warmer, n)
	for i := range ws {
		ws[i] = &warmer{
			prog:     progs[i],
			variants: []liveVariant{{hier: sh.Views[i], pf: pfs[i]}},
			bp:       branch.NewTAGE(branch.DefaultTAGELogBase, branch.DefaultTAGELogTagged),
			btb:      branch.NewBTB(btbEntries, btbWays),
			ras:      branch.NewRAS(rasEntries),
			shared:   true,
		}
	}
	set := &Set{Hier: hcfg, Cores: n, FFPerCore: make([]uint64, n),
		Pace: pc, WindowInsts: make([]uint64, n), Images: make([]*emu.Memory, n)}
	for i := range set.WindowInsts {
		set.WindowInsts[i] = scalePace(p.Window, pc[i])
		set.Images[i] = ems[i].Mem().Snapshot()
	}

	// advance moves every live core forward by its pace-scaled share of
	// insts instructions, in pace-scaled round-robin chunks when warming
	// (unwarmed skip phases cannot interact: they are cut at sliceInsts
	// only so that ctx is looked at, once a round). Scaling both the
	// budget and the chunk keeps every core's stream flowing for the whole
	// phase: all cores exhaust their budgets after the same number of
	// rounds, so the shared LLC sees a steady pace-ratio mix right up to
	// the snapshot.
	advance := func(insts uint64, warm bool) {
		remaining := make([]uint64, n)
		chunks := make([]uint64, n)
		for i := range remaining {
			remaining[i] = scalePace(insts, pc[i])
			chunks[i] = sliceInsts
			if warm {
				chunks[i] = scalePace(interleaveChunk, pc[i])
			}
		}
		for {
			if ctx.Err() != nil {
				return
			}
			advanced := false
			for i, em := range ems {
				if remaining[i] == 0 || em.Done() {
					continue
				}
				step := chunks[i]
				if step > remaining[i] {
					step = remaining[i]
				}
				var done uint64
				if warm {
					done = em.FastForward(step, ws[i])
					set.WarmInsts += done
				} else {
					done = em.FastForward(step, nil)
				}
				set.FFInsts += done
				set.FFPerCore[i] += done
				remaining[i] -= step
				if done > 0 {
					advanced = true
				}
			}
			if !advanced {
				return
			}
		}
	}

	for k := 0; k < p.Count; k++ {
		advance(p.Skip, false)
		advance(p.Warm, true)
		if ctx.Err() != nil {
			break
		}
		anyDone := false
		for _, em := range ems {
			if em.Done() {
				anyDone = true
			}
		}
		if anyDone {
			break // a lockstep window needs every core live
		}
		pt := &Point{Cores: make([]*CoreState, n), Variants: map[string]*Variant{"": {Hier: sh.Freeze(), PFs: make([]prefetch.Prefetcher, n)}}}
		for i, em := range ems {
			cs := &CoreState{
				PC:      em.PC(),
				Regs:    em.Regs(),
				Mem:     em.Mem().Snapshot(),
				BP:      ws[i].bp.Clone(),
				BTB:     ws[i].btb.Clone(),
				RAS:     ws[i].ras.Clone(),
				FFInsts: set.FFPerCore[i],
			}
			if pf := ws[i].variants[0].pf; pf != nil {
				pt.Variants[""].PFs[i] = prefetch.Clone(pf)
			}
			pt.Cores[i] = cs
		}
		set.Points = append(set.Points, pt)
		// Execute the window region functionally too (with warming): the
		// detailed lockstep run covers it from the restored state, and the
		// next checkpoint's shared-LLC content must include it.
		advance(p.Window, true)
	}
	set.HostNS = time.Since(start).Nanoseconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// TestCaptureMultiMatchesOracle: the co-scheduled capture is the n-core
// pass of the one capture loop, and encodes to the bytes of the loop it
// replaced (refCaptureMultiContext), for 2 and 4 cores under uniform and
// skewed paces, with skip phases longer than a slice, and with a core
// whose program halts in the third window. Carrying a core's code-line
// dedup state from one interleave chunk to its next fails it.
func TestCaptureMultiMatchesOracle(t *testing.T) {
	hcfg := cache.DefaultHierConfig()
	type leg struct {
		progs []*program.Program
		ems   func() []*emu.Emulator
		kinds []string
		pfs   func() []prefetch.Prefetcher
		p     Params
	}
	chase, stream, count, halt := chaseProgram(t), storeProgram(t), countProgram(t), haltProgram(t, 12_000)
	p := Params{Skip: sliceInsts + 5000, Warm: 15_000, Window: 1500, Count: 3}
	legs := map[string]leg{
		"2 cores": {[]*program.Program{chase, stream},
			func() []*emu.Emulator { return []*emu.Emulator{chaseEmu(t, chase), emu.New(stream, emu.NewMemory())} },
			[]string{"bop", "none"},
			func() []prefetch.Prefetcher { return []prefetch.Prefetcher{prefetch.NewBOP(), nil} }, p},
		"4 cores": {[]*program.Program{chase, stream, count, chase},
			func() []*emu.Emulator {
				return []*emu.Emulator{chaseEmu(t, chase), emu.New(stream, emu.NewMemory()), emu.New(count, emu.NewMemory()), chaseEmu(t, chase)}
			},
			[]string{"bop", "none", "stride", "ghb"},
			func() []prefetch.Prefetcher {
				return []prefetch.Prefetcher{prefetch.NewBOP(), nil, prefetch.NewStride(256), prefetch.NewGHB(512)}
			}, p},
		"a core halts": {[]*program.Program{chase, halt},
			func() []*emu.Emulator { return []*emu.Emulator{chaseEmu(t, chase), emu.New(halt, emu.NewMemory())} },
			[]string{"stride", "none"},
			func() []prefetch.Prefetcher { return []prefetch.Prefetcher{prefetch.NewStride(256), nil} },
			Params{Warm: 15_000, Window: 1500, Count: 5}},
	}
	for name, l := range legs {
		for _, pace := range [][]float64{nil, {1, 0.6}, {0.3, 1, 0.5, 1}} {
			var pc []float64
			for i := range l.progs {
				if pace != nil {
					pc = append(pc, pace[i%len(pace)])
				}
			}
			oracle, err := refCaptureMultiContext(context.Background(), l.progs, l.ems(), hcfg, 128, 4, 16, l.pfs(), l.p, pc)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range oracle.Points { // the oracle's one variant, under its name
				pt.Variants = map[string]*Variant{VariantName(l.kinds): pt.Variants[""]}
			}
			set, err := captureMulti(context.Background(), l.progs, l.ems(), hcfg, 128, 4, 16, l.kinds, l.pfs(), l.p, pc)
			if err != nil {
				t.Fatal(err)
			}
			if len(set.Points) == 0 || (name == "a core halts") == (len(set.Points) == l.p.Count) {
				t.Errorf("%s, pace %v: %d points of %d: the leg does not test what it is for", name, pc, len(set.Points), l.p.Count)
			}
			oracle.HostNS, set.HostNS = 0, 0
			if !bytes.Equal(EncodeSet(set, "k"), EncodeSet(oracle, "k")) || set.WarmInsts != oracle.WarmInsts {
				t.Errorf("%s, pace %v: the set differs from the oracle's (warmed %d, the oracle %d)", name, pc, set.WarmInsts, oracle.WarmInsts)
			}
		}
	}
}

// haltProgram runs its counting loop n times, three instructions each,
// and halts.
func haltProgram(t testing.TB, n int64) *program.Program {
	t.Helper()
	b := program.NewBuilder("halt")
	b.MovI(isa.R(1), 0)
	b.MovI(isa.R(3), 0x4000)
	b.MovI(isa.R(5), n)
	b.Label("loop")
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Load(isa.R(2), isa.R(3), 0)
	b.Blt(isa.R(1), isa.R(5), "loop")
	b.Halt()
	return b.MustBuild()
}

// TestCaptureMultiDecodes: a set straight out of a co-scheduled capture
// names its variant by its cores' prefetcher kinds, so it encodes and
// decodes as it is, and restores that tuple and no other.
func TestCaptureMultiDecodes(t *testing.T) {
	chase, stream := chaseProgram(t), storeProgram(t)
	set, err := captureMulti(context.Background(),
		[]*program.Program{chase, stream},
		[]*emu.Emulator{chaseEmu(t, chase), emu.New(stream, emu.NewMemory())},
		cache.DefaultHierConfig(), 128, 4, 16, []string{"bop", "none"}, []prefetch.Prefetcher{prefetch.NewBOP(), nil},
		Params{Warm: 15_000, Window: 1500, Count: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeSet(set, "k")
	dec, err := DecodeSet(enc, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeSet(dec, "k"), enc) {
		t.Errorf("the decoded set encodes to other bytes")
	}
	if err := dec.Attach(set.Images...); err != nil {
		t.Fatal(err)
	}
	progs := []*program.Program{chase, stream}
	if _, err := dec.Points[0].RestoreVariant(progs, "bop,none"); err != nil {
		t.Errorf("restore of the captured tuple: %v", err)
	}
	if _, err := dec.Points[0].RestoreVariant(progs, "none,bop"); err == nil {
		t.Errorf("restored a tuple the set never warmed")
	}
}

// TestHandBuiltSetRoundTrips: a set that leaves per-core fields out (no
// FFPerCore, no Pace, no WindowInsts, as the co-scheduled oracle's did
// before it kept them) still encodes every per-core field once a core, so
// its bytes decode and re-encode to themselves. The version-4 multi-set
// encoder wrote such fields by their slice lengths and its decoder read
// them by the core count, so a two-core set without them was refused by
// its own decoder.
func TestHandBuiltSetRoundTrips(t *testing.T) {
	set := multiCapture(t)
	set.FFPerCore, set.Pace, set.WindowInsts = nil, nil, nil
	enc := EncodeSet(set, "k")
	dec, err := DecodeSet(enc, "k")
	if err != nil {
		t.Fatalf("a two-core set without per-core fields does not decode: %v", err)
	}
	if !bytes.Equal(EncodeSet(dec, "k"), enc) {
		t.Errorf("the decoded set encodes to other bytes")
	}
	if !reflect.DeepEqual(dec.Pace, []float64{1, 1}) || !reflect.DeepEqual(dec.WindowInsts, []uint64{0, 0}) || len(dec.FFPerCore) != 2 {
		t.Errorf("decoded per-core fields: pace %v, windows %v, ff %v", dec.Pace, dec.WindowInsts, dec.FFPerCore)
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
		set, err := captureOne(tc.ctx(), prog, em, hcfg, 128, 4, 16, capturePFS(), p)
		if !errors.Is(err, context.Canceled) || set != nil {
			t.Errorf("%s: capture returned set=%v err=%v, want nil set and context.Canceled", name, set != nil, err)
		}
		if n := executed(em); n < tc.min || n > tc.max {
			t.Errorf("%s: capture executed %d instructions, want %d..%d", name, n, tc.min, tc.max)
		}

		ems := []*emu.Emulator{emu.New(prog, emu.NewMemory()), emu.New(prog, emu.NewMemory())}
		mset, err := captureMulti(tc.ctx(), []*program.Program{prog, prog}, ems,
			hcfg, 128, 4, 16, []string{"none", "none"}, []prefetch.Prefetcher{nil, nil}, p, nil)
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
