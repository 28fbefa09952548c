package workload

import (
	"math/rand"

	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
	"crisp/internal/sim"
)

// tailchase is the latency-critical half of the co-location pair: a
// TailBench-style request loop whose service time is one dependent
// pointer hop over an LLC-exceeding working set plus a short burst of
// request-processing arithmetic. With so little independent work per hop,
// its IPC tracks the load-to-use latency of the chase directly — exactly
// the workload whose tail a streaming neighbour stretches through shared
// LLC evictions and DRAM queueing.
func init() {
	register(&Workload{
		Name: "tailchase",
		Pathology: "latency-critical service loop: serial chase with minimal " +
			"overlap work; co-located batch traffic degrades it through the " +
			"shared LLC and DRAM bank/bus queues.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("tailchase", v)))
			// 0.5/0.75 MiB of 64B nodes: fits the 1 MiB LLC solo, so the
			// chase hits the LLC when alone and misses to DRAM only when a
			// co-located neighbour evicts it — interference flows through
			// the shared LLC, not just the memory bus.
			nodes := sizes(8000, 12000, v)
			const elems = 8
			mem := emu.NewMemory()
			slots := ringList(mem, regionA, nodes, r)
			vecInit(mem, regionD, elems*2, r)

			b := program.NewBuilder("tailchase")
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

// streambatch is the batch half of the co-location pair: a copy-style
// sweep (load + store per line, sequential line stride) over four large
// independent streams. Every iteration moves whole cache lines through the
// LLC and DRAM — reads on the way in, writebacks of the dirtied victims on
// the way out — so it consumes as much shared bandwidth and LLC capacity
// as the machine will give it while staying almost latency-insensitive
// (high MLP, no dependent misses).
func init() {
	register(&Workload{
		Name: "streambatch",
		Pathology: "high-bandwidth streaming batch: line-stride load+store " +
			"sweeps with high MLP; thrashes the shared LLC and saturates the " +
			"DRAM bus without being latency-sensitive itself.",
		build: func(v Variant) *sim.Image {
			r := rand.New(rand.NewSource(seedFor("streambatch", v)))
			const streams, elems = 4, 8
			span := sizes(1<<21, 1<<22, v) // bytes per stream
			mem := emu.NewMemory()
			for s := 0; s < streams; s++ {
				base := regionA + uint64(s)*0x0100_0000
				for off := 0; off < span; off += 4096 {
					mem.WriteWord(base+uint64(off), int64(off+s))
				}
			}
			vecInit(mem, regionD, elems*2, r)

			const stride = 64 // next line every iteration: pure bandwidth
			b := program.NewBuilder("streambatch")
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
				b.Load(rT1, rT4, 0)   // streaming read (high MLP)
				b.Add(rT1, rT1, rVal) // touch the data
				b.Store(rT4, 8, rT1)  // dirty the line: writeback traffic
				b.AddI(cur, cur, stride)
			}
			b.AddI(rCnt, rCnt, 1)
			b.Bne(rCnt, rZero, "outer")
			b.Halt()
			regs := map[isa.Reg]int64{rVal: 1}
			for s := 0; s < streams; s++ {
				regs[isa.R(12+s)] = int64(regionA + uint64(s)*0x0100_0000)
				regs[isa.R(20+s)] = int64(s * 1024)
			}
			return &sim.Image{Prog: b.MustBuild(), Mem: mem, Regs: regs}
		},
	})
}
