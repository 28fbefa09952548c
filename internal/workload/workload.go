// Package workload provides the evaluation suite: synthetic kernels that
// reproduce, per application, the memory- and branch-behaviour classes the
// paper reports for SPEC2017, Xhpcg, and the TailBench datacenter
// applications (Section 5.1). Real inputs and binaries are unavailable, so
// each kernel is engineered to exhibit its application's documented
// pathology — pointer chasing, indirect gathers, hash probing,
// hard-to-predict branches, high-MLP streaming — as described per workload
// below and in DESIGN.md.
//
// Train and ref variants share the same static program (the paper
// profiles on train inputs and evaluates on ref inputs); they differ in
// data-structure sizes, seeds, and layouts, which are injected through
// registers and memory.
package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
	"crisp/internal/sim"
)

// Variant selects the input set.
type Variant int

// Input variants (Section 5.1: profile on train, evaluate on ref).
const (
	Train Variant = iota
	Ref
)

func (v Variant) String() string {
	if v == Train {
		return "train"
	}
	return "ref"
}

// Workload is one benchmark of the suite.
type Workload struct {
	Name string
	// Pathology documents which paper-reported behaviour the kernel
	// models and what result shape is expected.
	Pathology string
	// build constructs the variant's image from scratch. It must be a
	// pure function of v; Build calls it at most once per variant.
	build func(v Variant) *sim.Image

	once     sync.Once
	pristine [2]func() *sim.Image // indexed by Variant: the memoised image every Build forks
}

// Build returns a fresh image for the variant, to be consumed by exactly
// one run. The variant's pristine image is constructed once per process,
// on first use, and kept for the life of the process; every call returns
// a copy-on-write fork of it — the shared program and register map, which
// runs only read, and an O(1) emu.Memory.Snapshot whose writes stay
// private to the fork. The pristine image itself is never executed, so
// concurrent Builds need no lock. A kernel constructor that panics
// panics again on every Build of that variant.
func (w *Workload) Build(v Variant) *sim.Image {
	w.once.Do(func() {
		for i := range w.pristine {
			w.pristine[i] = sync.OnceValue(func() *sim.Image {
				img := w.build(Variant(i))
				img.Mem = img.Mem.Snapshot() // freeze: later forks do not mutate it
				return img
			})
		}
	})
	img := w.pristine[v]()
	return &sim.Image{Prog: img.Prog, Mem: img.Mem.Snapshot(), Regs: img.Regs}
}

var registry []*Workload

func register(w *Workload) { registry = append(registry, w) }

// All returns the evaluation suite in the paper's presentation order.
func All() []*Workload {
	out := make([]*Workload, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the named workload or nil.
func ByName(name string) *Workload {
	for _, w := range registry {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Names returns all workload names.
func Names() []string {
	var out []string
	for _, w := range registry {
		out = append(out, w.Name)
	}
	return out
}

// ---------------------------------------------------------------- helpers

// Memory regions: keep data structures on distinct high bits so kernels
// compose without overlap. Code lives at program.CodeBase (4 MiB).
const (
	regionA = uint64(0x1000_0000)
	regionB = uint64(0x3000_0000)
	regionC = uint64(0x5000_0000)
	regionD = uint64(0x7000_0000)
)

var _ = fmt.Sprintf // keep fmt for kernels that format panics

// paramBase is where kernels stash variant-dependent scalar parameters
// (sizes, masks). Code loads them at startup so the static program is
// identical across train and ref variants.
const paramBase = uint64(0x0F00_0000)

// setParam writes parameter word idx for the variant.
func setParam(mem *emu.Memory, idx int, v int64) {
	mem.WriteWord(paramBase+uint64(idx)*8, v)
}

// emitLoadParam emits code loading parameter word idx into reg.
func emitLoadParam(b *program.Builder, reg isa.Reg, idx int) {
	b.MovI(reg, int64(paramBase))
	b.Load(reg, reg, int64(idx)*8)
}

// ringList lays a singly linked ring of `nodes` 64-byte nodes at random
// slots inside region and returns the slot addresses in traversal order.
// Node layout: [0]=next pointer, [8]=value.
func ringList(mem *emu.Memory, region uint64, nodes int, r *rand.Rand) []uint64 {
	perm := r.Perm(nodes)
	slots := make([]uint64, nodes)
	for i := range slots {
		slots[i] = region + uint64(perm[i])*64
	}
	for i := 0; i < nodes; i++ {
		mem.WriteWord(slots[i], int64(slots[(i+1)%nodes]))
		mem.WriteWord(slots[i]+8, int64(r.Intn(1<<30)))
	}
	return slots
}

// encodedRing is ringList but stores the successor as a scrambled slot
// index (decode: xor mask, shift, add base), forcing a multi-instruction
// address-generation slice.
func encodedRing(mem *emu.Memory, region uint64, nodes int, mask int64, r *rand.Rand) []uint64 {
	perm := r.Perm(nodes)
	slots := make([]uint64, nodes)
	for i := range slots {
		slots[i] = region + uint64(perm[i])*64
	}
	for i := 0; i < nodes; i++ {
		nextIdx := int64(perm[(i+1)%nodes]) ^ mask
		mem.WriteWord(slots[i], nextIdx)
		mem.WriteWord(slots[i]+8, int64(r.Intn(1<<30)))
	}
	return slots
}

// fillWords writes n sequential 8-byte values at base, staging them in a
// buffer so the memory resolves each page once per run (Memory.WriteWords)
// instead of once per word.
func fillWords(mem *emu.Memory, base uint64, n int, f func(i int) int64) {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = f(i)
	}
	mem.WriteWords(base, vals)
}

// Standard register allocation shared by kernels (documented here so each
// kernel body reads consistently):
//
//	r1..r2   chase state (cur, val)
//	r3..r7   bases and loop limits
//	r8..r11  scratch values
//	r12..r19 per-chain bases
//	r20..r27 per-chain cursors
//	r28..r31 counters / masks / link
var (
	rCur  = isa.R(1)
	rVal  = isa.R(2)
	rVecB = isa.R(3)
	rIdx  = isa.R(4)
	rLim  = isa.R(5)
	rB1   = isa.R(6)
	rB2   = isa.R(7)
	rT1   = isa.R(8)
	rT2   = isa.R(9)
	rT3   = isa.R(10)
	rT4   = isa.R(11)
	rCnt  = isa.R(28)
	rMask = isa.R(29)
	rRng  = isa.R(30)
	rZero = isa.R(0)
)

// emitVecWork emits the port-saturating filler block: an inner loop over
// `elems` vector elements (4x unrolled, three loads and a multiply per
// element) against the L1-resident array at the address in rVecB. It
// models the "embarrassingly parallel" non-critical work the scheduler is
// free to deprioritize. Clobbers rIdx, rT1..rT3; reads rVal.
func emitVecWork(b *program.Builder, label string, elems int64) {
	b.MovI(rLim, elems)
	b.MovI(rIdx, 0)
	b.Label(label)
	for u := 0; u < 4; u++ {
		off := int64(u * 8)
		b.LoadIdx(rT1, rVecB, rIdx, 8, off)
		b.LoadIdx(rT2, rVecB, rIdx, 8, off+32)
		b.LoadIdx(rT3, rVecB, rIdx, 8, off+64)
		b.Mul(rT1, rT1, rVal)
		b.Add(rT2, rT2, rT3)
	}
	b.AddI(rIdx, rIdx, 4)
	b.Blt(rIdx, rLim, label)
}

// emitVecWorkALU is emitVecWork with a heavier arithmetic mix (two loads,
// two multiplies, two adds per element) that keeps the ALU issue ports
// near saturation. Branch-heavy kernels use it so that a mispredicting
// branch and its condition slice genuinely contend for selection slots.
func emitVecWorkALU(b *program.Builder, label string, elems int64) {
	b.MovI(rLim, elems)
	b.MovI(rIdx, 0)
	b.Label(label)
	for u := 0; u < 4; u++ {
		off := int64(u * 8)
		b.LoadIdx(rT1, rVecB, rIdx, 8, off)
		b.Mul(rT2, rT1, rVal)
		b.Mul(rT3, rT1, rVal)
		b.Add(rT2, rT2, rT3)
		b.Xor(rT3, rT2, rT1)
		b.Add(rT2, rT3, rT1)
	}
	b.AddI(rIdx, rIdx, 4)
	b.Blt(rIdx, rLim, label)
}

// vecInit prepares the filler array at region (elems+12 words).
func vecInit(mem *emu.Memory, region uint64, elems int, r *rand.Rand) {
	fillWords(mem, region, elems+12, func(i int) int64 { return int64(r.Intn(1 << 20)) })
}

// sizes returns (train, ref) scaled sizes.
func sizes(train, ref int, v Variant) int {
	if v == Train {
		return train
	}
	return ref
}

// seedFor derives deterministic but variant-distinct seeds.
func seedFor(name string, v Variant) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h = (h ^ int64(c)) * 16777619
	}
	if v == Ref {
		h ^= 0x9e3779b9
	}
	return h
}
