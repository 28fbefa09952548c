package workload

import (
	"math/rand"

	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
	"crisp/internal/sim"
)

// pointerchase is the Figure 1/2 microbenchmark: one linked-list traversal
// interleaved with an embarrassingly parallel vector multiply (VEC_SIZE =
// 32 as in the paper's listing). The next-pointer load misses the LLC and
// serializes iterations; CRISP hoists it past the vector work.
func init() {
	register(&Workload{
		Name: "pointerchase",
		Pathology: "Fig 1 µbench: serial pointer chase behind vector work; " +
			"expect a visible UPC sawtooth for OOO and a flattened, higher " +
			"curve for CRISP.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("pointerchase", v)))
			nodes := sizes(20000, 40000, v)
			const elems = 32
			mem := emu.NewMemory()
			slots := ringList(mem, regionA, nodes, r)
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("pointerchase")
			b.MovI(rVecB, int64(regionD))
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			b.Load(rCur, rCur, 0) // cur = cur->next (delinquent)
			b.Load(rVal, rCur, 8) // val = cur->val
			b.Bne(rCur, rZero, "outer")
			b.Halt()
			return &sim.Image{
				Prog: b.MustBuild(), Mem: mem,
				Regs: map[isa.Reg]int64{rCur: int64(slots[0]), rVal: 1},
			}
		},
	})
}

// mcf models SPEC mcf's network-simplex arc traversals: several mutually
// independent pointer chases over a large arc pool, interleaved with
// arithmetic on L1-resident data. The independent chains give CRISP MLP to
// create; the paper reports mcf-like apps among its largest gains.
func init() {
	register(&Workload{
		Name: "mcf",
		Pathology: "multi-chain pointer chase (MLP): CRISP's largest-gain " +
			"class; IBDA captures it partially (register-only slices suffice).",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("mcf", v)))
			nodes := sizes(16000, 32000, v)
			const chains, elems = 4, 64
			mem := emu.NewMemory()
			regs := map[isa.Reg]int64{rVal: 1}
			for ch := 0; ch <= chains; ch++ {
				region := regionA + uint64(ch)*0x0400_0000
				slots := ringList(mem, region, nodes, r)
				regs[isa.R(20+ch)] = int64(slots[0])
			}
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("mcf")
			b.MovI(rVecB, int64(regionD))
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			for ch := 0; ch < chains; ch++ {
				cur := isa.R(20 + ch)
				b.Load(cur, cur, 0) // advance chain (delinquent)
			}
			// A colder fifth chain advances every 8th iteration: its small
			// miss share makes mcf sensitive to the Figure 10 threshold T.
			b.AddI(rCnt, rCnt, 1)
			b.MovI(rT1, 7)
			b.And(rT1, rCnt, rT1)
			b.Bne(rT1, rZero, "skipcold")   // predictable (period 8)
			b.Load(isa.R(24), isa.R(24), 0) // cold chain hop (delinquent, ~6% share)
			b.Label("skipcold")
			b.Load(rVal, isa.R(20), 8)
			b.Bne(isa.R(20), rZero, "outer")
			b.Halt()
			return &sim.Image{Prog: b.MustBuild(), Mem: mem, Regs: regs}
		},
	})
}

// omnetpp models discrete-event simulation: a binary-heap-like walk whose
// child choice depends on loaded keys, plus an event handler dispatch
// branch that is data-dependent and poorly predictable.
func init() {
	register(&Workload{
		Name: "omnetpp",
		Pathology: "two pointer chases with a data-dependent direction " +
			"branch: load slices dominate, with a secondary branch-slice gain.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("omnetpp", v)))
			nodes := sizes(12000, 24000, v)
			const elems = 48
			mem := emu.NewMemory()
			// Node layout: [0]=left, [8]=right (both random successors),
			// [16]=key. The walk picks left/right on key parity.
			perm := r.Perm(nodes)
			slots := make([]uint64, nodes)
			for i := range slots {
				slots[i] = regionA + uint64(perm[i])*64
			}
			for i := 0; i < nodes; i++ {
				mem.WriteWord(slots[i], int64(slots[(i+1)%nodes]))
				mem.WriteWord(slots[i]+8, int64(slots[(i+7919)%nodes]))
				mem.WriteWord(slots[i]+16, int64(r.Intn(1<<30)))
			}
			slots2 := ringList(mem, regionB, nodes, r)
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("omnetpp")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rMask, 1)
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			// Heap walk: key parity chooses the child pointer.
			b.Load(rT4, rCur, 16) // key (delinquent-ish: same line as node)
			b.And(rT4, rT4, rMask)
			b.Beq(rT4, rZero, "left") // data-dependent: ~50% mispredict
			b.Load(rCur, rCur, 8)     // right child (delinquent)
			b.Jmp("join")
			b.Label("left")
			b.Load(rCur, rCur, 0) // left child (delinquent)
			b.Label("join")
			// Second, independent event chain.
			b.Load(isa.R(21), isa.R(21), 0)
			b.Load(rVal, rCur, 16)
			b.Bne(rCur, rZero, "outer")
			b.Halt()
			return &sim.Image{
				Prog: b.MustBuild(), Mem: mem,
				Regs: map[isa.Reg]int64{rCur: int64(slots[0]), isa.R(21): int64(slots2[0]), rVal: 1},
			}
		},
	})
}

// xalancbmk models XML tree/DOM walks: encoded child references that need
// a short decode slice, two concurrent walks.
func init() {
	register(&Workload{
		Name: "xalancbmk",
		Pathology: "encoded pointer chase (decode slice of 3 ops per hop): " +
			"slice prioritization compounds per hop.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("xalancbmk", v)))
			nodes := sizes(12000, 24000, v)
			const elems, mask = 48, int64(0x5a5a)
			mem := emu.NewMemory()
			regs := map[isa.Reg]int64{rVal: 1}
			for ch := 0; ch < 2; ch++ {
				region := regionA + uint64(ch)*0x0400_0000
				slots := encodedRing(mem, region, nodes, mask, r)
				regs[isa.R(20+ch)] = int64(slots[0])
				regs[isa.R(12+ch)] = int64(region)
			}
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("xalancbmk")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rMask, mask)
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			for ch := 0; ch < 2; ch++ {
				cur := isa.R(20 + ch)
				b.Load(rT4, cur, 0)           // encoded child index (delinquent)
				b.Xor(rT4, rT4, rMask)        // decode
				b.Shl(rT4, rT4, 6)            // *64
				b.Add(cur, isa.R(12+ch), rT4) // base + offset
			}
			b.Load(rVal, isa.R(20), 8)
			b.Bne(isa.R(20), rZero, "outer")
			b.Halt()
			return &sim.Image{Prog: b.MustBuild(), Mem: mem, Regs: regs}
		},
	})
}

// moses models the phrase-table lookups of statistical MT: many distinct
// probe sites (large static footprint of critical code), multi-level hash
// probing with long slices that overflow a 1K-entry IST, and dependencies
// through a memory-resident probe state.
func init() {
	register(&Workload{
		Name: "moses",
		Pathology: "many distinct long probe slices: exceeds IBDA's IST; " +
			"large unique-critical-instruction count (Fig 11).",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("moses", v)))
			buckets := sizes(1<<14, 1<<15, v)
			const sites, elems = 4, 32
			mem := emu.NewMemory()
			// Hash table: bucket array of node pointers; nodes hold
			// [0]=next-key-seed, [8]=value.
			fillWords(mem, regionA, buckets, func(i int) int64 {
				return int64(regionB + uint64(r.Intn(buckets))*64)
			})
			for i := 0; i < buckets; i++ {
				mem.WriteWord(regionB+uint64(i)*64, int64(r.Intn(1<<30)))
				mem.WriteWord(regionB+uint64(i)*64+8, int64(r.Intn(1<<30)))
			}
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("moses")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rB1, int64(regionA))
			setParam(mem, 0, int64(buckets-1))
			emitLoadParam(b, rMask, 0)
			// Second-level probe space is 4x the bucket count (a few MiB):
			// it stays DRAM-resident, as phrase tables do.
			setParam(mem, 1, int64(buckets*4-1))
			emitLoadParam(b, rCur, 1)
			spill := int64(regionC) // memory-resident probe state
			b.MovI(rB2, spill)
			b.Label("outer")
			emitVecWork(b, "inner", elems)
			// `sites` distinct probe sequences, software-pipelined: this
			// iteration reads the second-level entry located last iteration,
			// then hashes and probes the first level for the next one.
			for s := 0; s < sites; s++ {
				off := int64(s * 8)
				b.Load(rT4, isa.R(20+s), 8) // second-level probe (delinquent, ready at dispatch)
				b.Load(rRng, rB2, off)      // probe state through memory
				b.Shl(rT1, rRng, 13)
				b.Xor(rRng, rRng, rT1)
				b.Shr(rT1, rRng, 7)
				b.Xor(rRng, rRng, rT1)
				b.And(rT2, rRng, rMask)
				b.LoadIdx(rT3, rB1, rT2, 8, 0) // bucket head (delinquent)
				b.Shr(rT1, rT3, 6)
				b.And(rT1, rT1, rCur) // wide second-level index space
				b.Shl(rT1, rT1, 6)
				b.Add(isa.R(20+s), rB2, rT1) // next second-level address
				b.Xor(rRng, rRng, rT4)
				b.Store(rB2, off, rRng) // spill probe state
			}
			b.AddI(rCnt, rCnt, 1)
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			// Seed the probe states.
			for s := 0; s < sites; s++ {
				mem.WriteWord(uint64(spill)+uint64(s*8), int64(r.Intn(1<<30))|1)
			}
			return &sim.Image{
				Prog: b.MustBuild(), Mem: mem,
				Regs: mosesRegs(),
			}
		},
	})
}

func mosesRegs() map[isa.Reg]int64 {
	return map[isa.Reg]int64{
		rVal: 1, isa.R(20): int64(regionC + 4096),
		isa.R(21): int64(regionC + 8192), isa.R(22): int64(regionC + 12288),
		isa.R(23): int64(regionC + 16384),
	}
}

// memcached models slab-cache GET paths: hash a key, load the bucket head,
// walk a short chain with a key-compare branch that exits at an
// unpredictable position (branch and load slices synergize).
func init() {
	register(&Workload{
		Name: "memcached",
		Pathology: "hash-chain walk with unpredictable early-exit compare: " +
			"load+branch slice synergy (Fig 8 class).",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("memcached", v)))
			buckets := sizes(1<<12, 1<<13, v)
			const elems = 24
			mem := emu.NewMemory()
			// Buckets point into a node pool; nodes: [0]=next, [8]=key,
			// [16]=value. Chains are 1-4 long.
			pool := regionB
			next := 0
			fillWords(mem, regionA, buckets, func(i int) int64 {
				head := pool + uint64(next)*64
				chain := 1 + r.Intn(4)
				for c := 0; c < chain; c++ {
					addr := pool + uint64(next)*64
					next++
					var nxt int64
					if c+1 < chain {
						nxt = int64(pool + uint64(next)*64)
					}
					mem.WriteWord(addr, nxt)
					mem.WriteWord(addr+8, int64(r.Intn(8))) // small key space
					mem.WriteWord(addr+16, int64(r.Intn(1<<30)))
				}
				return int64(head)
			})
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("memcached")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rB1, int64(regionA))
			setParam(mem, 0, int64(buckets-1))
			emitLoadParam(b, rMask, 0)
			b.Label("outer")
			emitVecWorkALU(b, "inner", elems)
			// Software-pipelined probe: walk the bucket whose address was
			// hashed last iteration; the chain loads feed unpredictable
			// key-compare branches (load+branch synergy).
			b.MovI(rB2, 7)
			b.And(rT4, rRng, rB2)      // search key in 0..7 (from last hash)
			b.Load(rCur, isa.R(20), 0) // bucket head (delinquent, ready at dispatch)
			// Compute the next iteration's bucket while walking.
			b.Shl(rT1, rRng, 13)
			b.Xor(rRng, rRng, rT1)
			b.Shr(rT1, rRng, 7)
			b.Xor(rRng, rRng, rT1)
			b.And(rT2, rRng, rMask)
			b.Shl(rT2, rT2, 3)
			b.Add(isa.R(20), rB1, rT2)
			// Walk up to 3 nodes; exit when the key matches (unpredictable).
			for hop := 0; hop < 3; hop++ {
				b.Load(rT3, rCur, 8)       // node key (delinquent)
				b.Beq(rT3, rT4, "hit")     // hard-to-predict compare
				b.Load(rCur, rCur, 0)      // next node (delinquent)
				b.Beq(rCur, rZero, "miss") // end of chain
			}
			b.Label("miss")
			b.MovI(rCur, int64(pool))
			b.Label("hit")
			b.Load(rVal, rCur, 16)
			b.AddI(rCnt, rCnt, 1)
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			return &sim.Image{
				Prog: b.MustBuild(), Mem: mem,
				Regs: map[isa.Reg]int64{rRng: 0x12345 | 1, rVal: 1, isa.R(20): int64(regionA)},
			}
		},
	})
}

// gcc models compiler passes: many small, distinct IR-walking loops, each
// with its own modest pointer chase. The critical-instruction footprint is
// spread over many static sites (Figure 11's high unique counts) and the
// code footprint pressures the instruction cache.
func init() {
	register(&Workload{
		Name: "gcc",
		Pathology: "many distinct small chase sites: large unique critical " +
			"footprint, moderate per-site gain.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("gcc", v)))
			nodes := sizes(8000, 16000, v)
			const phases, elems = 6, 48
			mem := emu.NewMemory()
			regs := map[isa.Reg]int64{rVal: 1}
			// One small ring per phase, all sharing cursor registers
			// round-robin (8 cursors).
			starts := make([]uint64, phases)
			for ph := 0; ph < phases; ph++ {
				region := regionA + uint64(ph)*0x0100_0000
				slots := ringList(mem, region, nodes, r)
				starts[ph] = slots[0]
			}
			fillWords(mem, regionC, phases, func(i int) int64 { return int64(starts[i]) })
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("gcc")
			b.MovI(rVecB, int64(regionD))
			b.MovI(rB2, int64(regionC))
			b.Label("outer")
			for ph := 0; ph < phases; ph++ {
				// Each phase has distinct static code: filler + one hop on
				// its ring through a memory-resident cursor.
				off := int64(ph * 8)
				b.Load(rT1, rVecB, off)
				b.Mul(rT1, rT1, rVal)
				b.Load(rT2, rVecB, off+8)
				b.Add(rT1, rT1, rT2)
				b.Load(rCur, rB2, off)  // cursor through memory
				b.Load(rCur, rCur, 0)   // hop (delinquent)
				b.Store(rB2, off, rCur) // spill cursor
			}
			emitVecWork(b, "inner", elems)
			b.AddI(rCnt, rCnt, 1)
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			return &sim.Image{Prog: b.MustBuild(), Mem: mem, Regs: regs}
		},
	})
}
