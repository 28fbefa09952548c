package workload

import (
	"math/rand"

	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
	"crisp/internal/sim"
)

// bwaves models blocked FP streaming: independent large-stride sweeps that
// miss the LLC with high memory-level parallelism. The misses dominate
// MPKI but are not latency-critical; CRISP's MLP filter excludes them
// (Section 3.2) while IBDA's frequency-only DLT tags them.
func init() {
	register(&Workload{
		Name: "bwaves",
		Pathology: "high-MPKI, high-MLP strided misses: CRISP declines to " +
			"tag (MLP >= 5), IBDA mis-tags and can lose performance.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("bwaves", v)))
			const streams, elems = 8, 16
			span := sizes(1<<22, 1<<23, v) // bytes per stream
			mem := emu.NewMemory()
			for s := 0; s < streams; s++ {
				base := regionA + uint64(s)*0x0100_0000
				for off := 0; off < span; off += 4096 {
					mem.WriteWord(base+uint64(off), int64(off+s))
				}
			}
			vecInit(mem, regionD, elems*2, r)

			// Stride of 33 lines defeats BOP's offset list (max 32) and the
			// stream detector's window, so the sweeps keep missing.
			const stride = 33 * 64
			b := program.NewBuilder("bwaves")
			b.MovI(rVecB, int64(regionD))
			setParam(mem, 0, int64(span-1))
			emitLoadParam(b, rMask, 0)
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			for s := 0; s < streams; s++ {
				base := isa.R(12 + s)
				cur := isa.R(20 + s)
				b.And(cur, cur, rMask)
				b.Add(rT4, base, cur)
				b.Load(rT1, rT4, 0) // independent streaming miss (high MLP)
				b.Add(rVal, rVal, rT1)
				b.AddI(cur, cur, stride)
			}
			b.AddI(rCnt, rCnt, 1)
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			regs := map[isa.Reg]int64{rVal: 1}
			for s := 0; s < streams; s++ {
				regs[isa.R(12+s)] = int64(regionA + uint64(s)*0x0100_0000)
				regs[isa.R(20+s)] = int64(s * 64)
			}
			return &sim.Image{Prog: b.MustBuild(), Mem: mem, Regs: regs}
		},
	})
}

// cactuBSSN models stencil relaxation with boundary handling: a cell
// chain whose loaded flag drives an unpredictable boundary branch guarding
// an indirect coefficient gather. Load and branch slices combine
// super-additively (Figure 8).
func init() {
	register(&Workload{
		Name: "cactus",
		Pathology: "chain + boundary branch guarding a dependent gather: " +
			"load/branch slice synergy.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("cactus", v)))
			cells := sizes(1<<14, 1<<15, v)
			const elems = 40
			mem := emu.NewMemory()
			// Chain of cells; [8] = flag (30% boundary), [16] = coeff addr.
			slots := ringList(mem, regionA, cells, r)
			coeff := ringList(mem, regionB, cells, r)
			for i, s := range slots {
				flag := int64(0)
				if r.Float64() < 0.3 {
					flag = 1
				}
				mem.WriteWord(s+8, flag)
				mem.WriteWord(s+16, int64(coeff[(i*31)%len(coeff)]))
			}
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("cactus")
			b.MovI(rVecB, int64(regionD))
			b.Label("outer")
			emitVecWorkALU(b, "inner", elems)
			b.Load(rCur, rCur, 0)      // next cell (delinquent)
			b.Load(rT3, rCur, 8)       // boundary flag (delinquent)
			b.Bne(rT3, rZero, "bound") // data-dependent, ~30% taken
			b.Load(rT4, rCur, 16)      // coefficient address (delinquent)
			b.Load(rVal, rT4, 8)       // indirect coefficient gather (delinquent)
			b.Jmp("done")
			b.Label("bound")
			b.Load(rVal, rCur, 24)
			b.Label("done")
			b.Bne(rCur, rZero, "outer")
			b.Halt()
			return &sim.Image{
				Prog: b.MustBuild(), Mem: mem,
				Regs: map[isa.Reg]int64{rCur: int64(slots[0]), rVal: 1},
			}
		},
	})
}

// deepsjeng models game-tree search: branches whose outcomes derive from
// loaded position data and mix poorly with history (evaluation-driven
// pruning). Branch slices alone recover measurable IPC (Figure 8's
// branch-only group).
func init() {
	register(&Workload{
		Name: "deepsjeng",
		Pathology: "unpredictable eval-driven branches with load-fed " +
			"condition slices; branch slices alone help >3%.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("deepsjeng", v)))
			table := sizes(1<<15, 1<<16, v)
			const elems = 32
			mem := emu.NewMemory()
			fillWords(mem, regionA, table, func(i int) int64 { return int64(r.Intn(1 << 30)) })
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("deepsjeng")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rB1, int64(regionA))
			setParam(mem, 0, int64(table-1))
			emitLoadParam(b, rMask, 0)
			b.MovI(rB2, 2)
			b.Label("outer")
			emitVecWorkALU(b, "inner", elems)
			// Transposition-table probe feeding a pruning branch.
			b.Shl(rT1, rRng, 13)
			b.Xor(rRng, rRng, rT1)
			b.Shr(rT1, rRng, 17)
			b.Xor(rRng, rRng, rT1)
			b.And(rT2, rRng, rMask)
			b.LoadIdx(rT3, rB1, rT2, 8, 0) // position eval (delinquent-ish)
			b.Xor(rT3, rT3, rRng)
			b.Rem(rT4, rT3, rB2)
			b.Beq(rT4, rZero, "prune") // ~50/50 eval-driven branch
			b.AddI(rVal, rVal, 3)
			b.Label("prune")
			b.AddI(rCnt, rCnt, 1)
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			return &sim.Image{
				Prog: b.MustBuild(), Mem: mem,
				Regs: map[isa.Reg]int64{rRng: 0xACE1, rVal: 1},
			}
		},
	})
}

// fotonik3d models FDTD with index indirection: a[idx[i]] gathers where
// idx is a shuffled permutation. Slices are short; IBDA's unfiltered
// tagging floods the PRIO vector and can lose performance (Section 5.2).
func init() {
	register(&Workload{
		Name: "fotonik",
		Pathology: "indirect gather with shuffled indices: short slices; " +
			"IBDA over-tags (no critical-path filter).",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("fotonik", v)))
			n := sizes(1<<16, 1<<17, v)
			const elems = 48
			mem := emu.NewMemory()
			perm := r.Perm(n)
			fillWords(mem, regionA, n, func(i int) int64 { return int64(perm[i]) })
			fillWords(mem, regionB, n, func(i int) int64 { return int64(r.Intn(1 << 20)) })
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("fotonik")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rB1, int64(regionA))
			b.MovI(rB2, int64(regionB))
			setParam(mem, 0, int64(n-1))
			emitLoadParam(b, rMask, 0)
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			// Software-pipelined two-level indirection (as FDTD codes
			// structure it): this iteration gathers through the address
			// prepared last iteration and computes the next one.
			for u := 0; u < 2; u++ {
				gaddr := isa.R(20 + u)
				b.Load(rT3, gaddr, 0) // a[idx] gather (delinquent, ready at dispatch)
				b.FAdd(rVal, rVal, rT3)
				// idx[] walked with a large stride (prefetch-resistant).
				b.AddI(rCnt, rCnt, 269)
				b.And(rT1, rCnt, rMask)
				b.LoadIdx(rT2, rB1, rT1, 8, 0) // idx[i] (delinquent)
				b.Shl(rT2, rT2, 3)
				b.Add(gaddr, rB2, rT2) // next iteration's gather address
			}
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			return &sim.Image{
				Prog: b.MustBuild(), Mem: mem,
				Regs: fotonikRegs(),
			}
		},
	})
}

func fotonikRegs() map[isa.Reg]int64 {
	return map[isa.Reg]int64{rVal: 1, isa.R(20): int64(regionB), isa.R(21): int64(regionB + 64)}
}

// lbm models lattice-Boltzmann streaming: two independent cell chains
// whose loaded state feeds a poorly predictable cell-type branch. The
// branch resolves only after the delinquent chain load returns, so load
// slices shorten branch resolution and branch slices add on top — the
// paper developed branch slices for exactly this workload (Figure 8's
// synergy case).
func init() {
	register(&Workload{
		Name: "lbm",
		Pathology: "chain loads feeding hard-to-predict type branches: " +
			"branch slices unlock load-slice gains (Fig 8 synergy).",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("lbm", v)))
			cells := sizes(1<<14, 1<<15, v)
			const chains, elems = 2, 40
			mem := emu.NewMemory()
			regs := map[isa.Reg]int64{rVal: 1}
			for ch := 0; ch < chains; ch++ {
				region := regionA + uint64(ch)*0x0400_0000
				slots := ringList(mem, region, cells, r)
				regs[isa.R(20+ch)] = int64(slots[0])
			}
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("lbm")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rMask, 1)
			b.Label("outer")
			emitVecWorkALU(b, "inner", elems)
			for ch := 0; ch < chains; ch++ {
				cur := isa.R(20 + ch)
				b.Load(cur, cur, 0) // next cell (delinquent)
				b.Load(rT4, cur, 8) // cell state (delinquent)
				b.And(rT4, rT4, rMask)
				b.Beq(rT4, rZero, skip(ch)) // cell-type branch: ~50/50
				b.Mul(rVal, rVal, rT4)      // collision update
				b.AddI(rVal, rVal, 7)
				b.Label(skip(ch))
			}
			b.Bne(isa.R(20), rZero, "outer")
			b.Halt()
			return &sim.Image{Prog: b.MustBuild(), Mem: mem, Regs: regs}
		},
	})
}

func skip(u int) string { return "skip" + string(rune('0'+u)) }

// nab models molecular-dynamics nonbonded kernels: FP distance chains
// feeding a cutoff branch. The long FP latency makes the branch resolve
// late; its slice is the FP chain itself (branch-only gains).
func init() {
	register(&Workload{
		Name: "nab",
		Pathology: "FP cutoff branch with long-latency condition chain: " +
			"branch-slice-only gains.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("nab", v)))
			atoms := sizes(1<<12, 1<<13, v)
			const elems = 32
			mem := emu.NewMemory()
			fillWords(mem, regionA, atoms, func(i int) int64 { return int64(r.Intn(1000) + 1) })
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("nab")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rB1, int64(regionA))
			setParam(mem, 0, int64(atoms-1))
			emitLoadParam(b, rMask, 0)
			b.MovI(rB2, 500)
			b.Label("outer")
			emitVecWorkALU(b, "inner", elems)
			b.AddI(rCnt, rCnt, 1)
			b.And(rT1, rCnt, rMask)
			b.LoadIdx(rT2, rB1, rT1, 8, 0) // atom coordinate (L1/LLC mix)
			b.FMul(rT3, rT2, rT2)          // distance^2 (long FP chain)
			b.FMul(rT4, rT3, rT2)
			b.FAdd(rT4, rT4, rT3)
			b.Rem(rT4, rT4, rB2)
			b.MovI(rT1, 250)
			b.Blt(rT4, rT1, "cut") // cutoff: data-dependent ~50%
			b.FAdd(rVal, rVal, rT3)
			b.Label("cut")
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			return &sim.Image{Prog: b.MustBuild(), Mem: mem, Regs: map[isa.Reg]int64{rVal: 1}}
		},
	})
}

// namd models neighbor-list force loops whose gather addresses pass
// through a memory-resident neighbor record (register spills): CRISP's
// memory-aware slicer captures the full slice, IBDA cannot (Section 5.2's
// "inability of following dependencies through memory").
func init() {
	register(&Workload{
		Name: "namd",
		Pathology: "gather addresses passed through memory: CRISP slices " +
			"them, register-only IBDA misses them.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("namd", v)))
			atoms := sizes(1<<15, 1<<16, v)
			const elems = 40
			mem := emu.NewMemory()
			// Neighbor records at regionC: each holds the address of the
			// next atom to visit. Atom pool at regionA.
			fillWords(mem, regionA, atoms*8, func(i int) int64 { return int64(r.Intn(1 << 20)) })
			perm := r.Perm(atoms)
			fillWords(mem, regionC, 4, func(i int) int64 {
				return int64(regionA + uint64(perm[i])*64)
			})
			// Each atom record stores the address of the next atom.
			for i := 0; i < atoms; i++ {
				addr := regionA + uint64(perm[i])*64
				mem.WriteWord(addr+16, int64(regionA+uint64(perm[(i+1)%atoms])*64))
			}
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("namd")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rB2, int64(regionC))
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			for u := 0; u < 2; u++ {
				off := int64(u * 8)
				b.Load(rCur, rB2, off) // neighbor cursor THROUGH MEMORY
				b.Load(rT1, rCur, 0)   // atom data (delinquent)
				b.FMul(rVal, rT1, rT1)
				b.Load(rT2, rCur, 16)  // next-atom address (delinquent)
				b.Store(rB2, off, rT2) // spill back (memory dependency)
			}
			b.AddI(rCnt, rCnt, 1)
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			return &sim.Image{Prog: b.MustBuild(), Mem: mem, Regs: map[isa.Reg]int64{rVal: 1}}
		},
	})
}

// perlbench models interpreter hash probing: long hash-mix slices feeding
// two-level probes at several distinct sites. Slices are long; IBDA's
// unfiltered slice tagging over-selects and loses performance.
func init() {
	register(&Workload{
		Name: "perlbench",
		Pathology: "long hash-mix slices at many sites: critical-path " +
			"filtering matters; IBDA over-selects.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("perlbench", v)))
			buckets := sizes(1<<14, 1<<15, v)
			const sites, elems = 4, 32
			mem := emu.NewMemory()
			fillWords(mem, regionA, buckets, func(i int) int64 {
				return int64(regionB + uint64(r.Intn(buckets))*64)
			})
			for i := 0; i < buckets; i++ {
				mem.WriteWord(regionB+uint64(i)*64, int64(r.Intn(1<<30)))
			}
			// Per-site hash state lives in memory (interpreter globals).
			for s := 0; s < sites; s++ {
				mem.WriteWord(regionC+uint64(s*8), int64(r.Intn(1<<30))|1)
			}
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("perlbench")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rB1, int64(regionA))
			b.MovI(rB2, int64(regionC))
			setParam(mem, 0, int64(buckets-1))
			emitLoadParam(b, rMask, 0)
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			for s := 0; s < sites; s++ {
				off := int64(s * 8)
				// Software-pipelined probe: read the entry whose bucket
				// pointer was hashed last iteration, then compute the next
				// bucket with a long hash-mix chain (the slice).
				b.Load(rT4, isa.R(20+s), 0) // entry key (delinquent, ready at dispatch)
				b.Load(rRng, rB2, off)      // per-site hash state (memory-resident)
				b.Shl(rT1, rRng, 13)
				b.Xor(rRng, rRng, rT1)
				b.Shr(rT1, rRng, 7)
				b.Xor(rRng, rRng, rT1)
				b.Shl(rT1, rRng, 17)
				b.Xor(rRng, rRng, rT1)
				b.Mul(rT2, rRng, rVal)
				b.And(rT2, rT2, rMask)
				b.LoadIdx(rT3, rB1, rT2, 8, 0) // bucket head (delinquent)
				b.Mov(isa.R(20+s), rT3)        // next iteration's entry pointer
				b.Xor(rRng, rRng, rT4)
				b.Store(rB2, off, rRng)
			}
			b.AddI(rCnt, rCnt, 1)
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			return &sim.Image{
				Prog: b.MustBuild(), Mem: mem,
				Regs: perlbenchRegs(),
			}
		},
	})
}

func perlbenchRegs() map[isa.Reg]int64 {
	return map[isa.Reg]int64{
		rVal: 3, isa.R(20): int64(regionB), isa.R(21): int64(regionB + 64),
		isa.R(22): int64(regionB + 128), isa.R(23): int64(regionB + 192),
	}
}

// xhpcg models the HPCG sparse matrix-vector product: per-row loops over
// CSR structures with x[col[j]] gathers. More rows fit in a bigger
// ROB/RS, so CRISP's gains grow with window size (Figure 9's standout).
func init() {
	register(&Workload{
		Name: "xhpcg",
		Pathology: "CSR SpMV gathers: window-size-sensitive CRISP gains " +
			"(Figure 9).",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("xhpcg", v)))
			n := sizes(1<<15, 1<<16, v)
			const nnzPerRow, elems = 4, 40
			mem := emu.NewMemory()
			// col[] at regionA (random), val[] at regionB, x[] at regionC.
			fillWords(mem, regionA, n*nnzPerRow, func(i int) int64 { return int64(r.Intn(n)) })
			fillWords(mem, regionB, n*nnzPerRow, func(i int) int64 { return int64(r.Intn(1 << 16)) })
			fillWords(mem, regionC, n, func(i int) int64 { return int64(r.Intn(1 << 16)) })
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("xhpcg")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rB1, int64(regionA)) // col
			b.MovI(rB2, int64(regionB)) // val
			b.MovI(isa.R(12), int64(regionC))
			setParam(mem, 0, int64(n*nnzPerRow-1))
			emitLoadParam(b, rMask, 0)
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			// Software-pipelined CSR row: gather x[] through addresses
			// prepared from the previous col[] loads (three concurrent
			// streams), then load the next col[] entries.
			for j := 0; j < 3; j++ {
				xaddr := isa.R(20 + j)
				b.Load(rT3, xaddr, 0) // x[col[j]] gather (ready at dispatch)
				b.FMul(rT3, rT3, rVal)
				b.FAdd(rVal, rVal, rT3)
				b.AddI(rCnt, rCnt, 523) // blocked-random row order
				b.And(rT1, rCnt, rMask)
				b.LoadIdx(rT2, rB1, rT1, 8, 0) // col[j] (delinquent)
				b.Shl(rT2, rT2, 3)
				b.Add(xaddr, isa.R(12), rT2) // next x[] address
			}
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			return &sim.Image{
				Prog: b.MustBuild(), Mem: mem,
				Regs: map[isa.Reg]int64{
					rVal: 1, isa.R(20): int64(regionC),
					isa.R(21): int64(regionC + 64), isa.R(22): int64(regionC + 128),
				},
			}
		},
	})
}

// imgdnn models dense inference: multiply-accumulate streams with high ILP
// plus a small activation-table lookup. Mostly compute-bound: CRISP's
// opportunity is small (the paper's low-gain class).
func init() {
	register(&Workload{
		Name: "imgdnn",
		Pathology: "compute-bound MACs with minor irregular lookups: " +
			"small CRISP gains.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("imgdnn", v)))
			table := sizes(1<<8, 1<<9, v)
			const elems = 64
			mem := emu.NewMemory()
			fillWords(mem, regionA, table, func(i int) int64 { return int64(r.Intn(1 << 16)) })
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("imgdnn")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rB1, int64(regionA))
			setParam(mem, 0, int64(table-1))
			emitLoadParam(b, rMask, 0)
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			// Activation lookup on the accumulated value.
			b.And(rT1, rVal, rMask)
			b.LoadIdx(rVal, rB1, rT1, 8, 0) // mostly cache-resident
			b.AddI(rVal, rVal, 1)
			b.AddI(rCnt, rCnt, 1)
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			return &sim.Image{Prog: b.MustBuild(), Mem: mem, Regs: map[isa.Reg]int64{rVal: 1}}
		},
	})
}
