package core

import (
	"crisp/internal/cache"
	"crisp/internal/metrics"
)

// LoadProf accumulates per-static-PC load behaviour: the measurements the
// paper's software pipeline obtains from PMU counters and PEBS
// (Section 3.2).
type LoadProf struct {
	Count     uint64 // dynamic executions
	L1Miss    uint64 // served beyond L1
	LLCMiss   uint64 // served by DRAM
	TotalLat  uint64 // sum of load-to-use latencies in cycles
	MLPSum    uint64 // sum of outstanding DRAM misses sampled at each LLC miss
	HeadStall uint64 // cycles this PC spent stalled at the ROB head
	Forwards  uint64 // store-to-load forwards

	// LatHist is the power-of-two histogram of this PC's load-to-use
	// latencies, the per-load latency distribution PEBS-style sampling
	// exposes on real hardware.
	LatHist metrics.Hist
}

// AMAT returns the average memory access time of the load in cycles.
func (p *LoadProf) AMAT() float64 {
	if p.Count == 0 {
		return 0
	}
	return float64(p.TotalLat) / float64(p.Count)
}

// LLCMissRatio returns the fraction of executions served by DRAM.
func (p *LoadProf) LLCMissRatio() float64 {
	if p.Count == 0 {
		return 0
	}
	return float64(p.LLCMiss) / float64(p.Count)
}

// AvgMLP returns the mean number of outstanding DRAM misses observed when
// this load missed the LLC.
func (p *LoadProf) AvgMLP() float64 {
	if p.LLCMiss == 0 {
		return 0
	}
	return float64(p.MLPSum) / float64(p.LLCMiss)
}

// BranchProf accumulates per-static-PC branch behaviour.
type BranchProf struct {
	Count   uint64
	Mispred uint64
	Taken   uint64
}

// MispredictRate returns mispredictions / executions.
func (p *BranchProf) MispredictRate() float64 {
	if p.Count == 0 {
		return 0
	}
	return float64(p.Mispred) / float64(p.Count)
}

// Result is the outcome of one timing simulation.
type Result struct {
	Cycles uint64
	Insts  uint64 // committed µops

	// Frontend.
	BranchExecs     uint64
	BranchMispreds  uint64
	BTBMisses       uint64
	FetchStallCycle uint64 // cycles fetch was blocked on a mispredict

	// Backend.
	ROBHeadStalls  uint64 // cycles the ROB head could not retire
	LoadExecs      uint64
	StoreExecs     uint64
	CriticalExecs  uint64 // committed µops carrying the critical tag
	IssuedCritical uint64 // issue slots granted via the PRIO vector
	QueueJumpSum   uint64 // older ready entries bypassed by PRIO picks

	// Breakdown is the exact cycle accounting: every commit slot of
	// every cycle is either a committed µop or attributed to one stall
	// bucket, so Breakdown.Total() == Cycles × CommitWidth and
	// Breakdown.Committed == Insts.
	Breakdown metrics.Breakdown
	// Hists are the event and occupancy histograms (load/DRAM latency,
	// MLP at miss, sampled ROB/RS/LQ/SQ/MSHR occupancy).
	Hists metrics.Hists

	// Memory hierarchy snapshots.
	L1I, L1D, LLC cache.Stats
	DRAMReads     uint64
	DRAMAvgLat    float64

	// Per-PC profiles (the software pipeline's PMU stand-in).
	Loads    map[int]*LoadProf
	Branches map[int]*BranchProf

	// UPC timeline: retired µops per UPCWindow-cycle window (Figure 1).
	UPCWindows []float64

	// SkippedCycles counts simulated cycles the run never stepped: whenever
	// no stage can make forward progress the core computes the earliest
	// future event (ROB-head completion, pending wakeup, redirect end,
	// frontend ready time) and jumps there, bulk-charging the interval to
	// the same stall bucket the per-cycle path would have used. The count
	// is deterministic (same workload + config ⇒ same skips); it measures
	// skip efficiency, not timing — Cycles already includes skipped ones.
	SkippedCycles uint64

	// Host throughput: how fast the simulator itself ran, as opposed to
	// the simulated machine. HostAllocs is process-wide: the heap objects
	// the whole process allocated between the run's start and its end
	// (runtime/metrics /gc/heap/allocs:objects), so it is a per-run number
	// only with one worker, which is how bench's layer walk reads
	// core.allocs_per_kinst. The runtime advances the counter a span of
	// objects at a time: a short run can read a few dozen low or high.
	// HostIters counts cycle-loop iterations actually executed; with idle
	// skipping Cycles−SkippedCycles ≈ HostIters, and Cycles/HostIters is
	// the per-iteration leverage skipping bought.
	HostNS     int64  // wall-clock nanoseconds spent inside Run
	HostAllocs uint64 // heap objects the process allocated during Run
	HostIters  uint64 // cycle-loop iterations executed (skips collapse many cycles into one)

	// Co-phase counters, populated only by RunMulti with ≥2 cores: this
	// core's retired instructions and the shared-clock cycle at the moment
	// the FIRST core in the lockstep group finished its budget. Up to that
	// cycle every core was live, so CoInsts/CoCycles is a drain-free
	// co-located IPC — the quantity co-scheduled checkpoint calibration
	// needs, uncontaminated by the solo tail a slower core runs after its
	// neighbours drop out.
	CoInsts  uint64 `json:",omitempty"`
	CoCycles uint64 `json:",omitempty"`

	// Sampled simulation: set only on results aggregated from detailed
	// windows over checkpointed state. FFInsts/HostFFNS are the size and
	// host cost of the functional fast-forward that produced the
	// checkpoint set; the capture is shared by every config of the
	// workload, so per-run speedup numbers that include HostFFNS are
	// conservative (the real saving is larger when ≥2 configs share it).
	SampledWindows int    `json:",omitempty"` // detailed windows aggregated (0 = full detail)
	FFInsts        uint64 `json:",omitempty"` // instructions fast-forwarded functionally
	HostFFNS       int64  `json:",omitempty"` // host ns spent fast-forwarding + checkpointing
}

// Merge folds another window's result into r: counters, breakdowns,
// histograms, cache/DRAM stats and per-PC profiles all accumulate.
// Sampling aggregation uses it across equal-length windows, so plain
// summation is the weighted aggregate. The sampling and host fast-forward
// fields are left untouched (they describe the whole set, not a window).
func (r *Result) Merge(o *Result) {
	r.Cycles += o.Cycles
	r.Insts += o.Insts
	r.BranchExecs += o.BranchExecs
	r.BranchMispreds += o.BranchMispreds
	r.BTBMisses += o.BTBMisses
	r.FetchStallCycle += o.FetchStallCycle
	r.ROBHeadStalls += o.ROBHeadStalls
	r.LoadExecs += o.LoadExecs
	r.StoreExecs += o.StoreExecs
	r.CriticalExecs += o.CriticalExecs
	r.IssuedCritical += o.IssuedCritical
	r.QueueJumpSum += o.QueueJumpSum
	r.Breakdown.Add(&o.Breakdown)
	r.Hists.Add(&o.Hists)
	r.L1I.Add(&o.L1I)
	r.L1D.Add(&o.L1D)
	r.LLC.Add(&o.LLC)
	if total := r.DRAMReads + o.DRAMReads; total > 0 {
		r.DRAMAvgLat = (r.DRAMAvgLat*float64(r.DRAMReads) + o.DRAMAvgLat*float64(o.DRAMReads)) / float64(total)
	}
	r.DRAMReads += o.DRAMReads
	if r.Loads == nil {
		r.Loads = make(map[int]*LoadProf)
	}
	for pc, p := range o.Loads {
		if mine, ok := r.Loads[pc]; ok {
			mine.Count += p.Count
			mine.L1Miss += p.L1Miss
			mine.LLCMiss += p.LLCMiss
			mine.TotalLat += p.TotalLat
			mine.MLPSum += p.MLPSum
			mine.HeadStall += p.HeadStall
			mine.Forwards += p.Forwards
			mine.LatHist.Add(&p.LatHist)
		} else {
			cp := *p
			r.Loads[pc] = &cp
		}
	}
	if r.Branches == nil {
		r.Branches = make(map[int]*BranchProf)
	}
	for pc, p := range o.Branches {
		if mine, ok := r.Branches[pc]; ok {
			mine.Count += p.Count
			mine.Mispred += p.Mispred
			mine.Taken += p.Taken
		} else {
			cp := *p
			r.Branches[pc] = &cp
		}
	}
	r.UPCWindows = append(r.UPCWindows, o.UPCWindows...)
	r.CoInsts += o.CoInsts
	r.CoCycles += o.CoCycles
	r.SkippedCycles += o.SkippedCycles
	r.HostNS += o.HostNS
	r.HostAllocs += o.HostAllocs
	r.HostIters += o.HostIters
}

// SkippedFrac returns the fraction of simulated cycles covered by
// next-event jumps rather than stepped individually.
func (r *Result) SkippedFrac() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.SkippedCycles) / float64(r.Cycles)
}

// HostMIPS returns simulated million-instructions per host second.
func (r *Result) HostMIPS() float64 {
	if r.HostNS == 0 {
		return 0
	}
	return float64(r.Insts) * 1e3 / float64(r.HostNS)
}

// IPC returns committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// BranchMPKI returns branch mispredictions per kilo-instruction.
func (r *Result) BranchMPKI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.BranchMispreds) / float64(r.Insts) * 1000
}

// LLCMPKI returns LLC demand misses per kilo-instruction.
func (r *Result) LLCMPKI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.LLC.Misses+r.LLC.MergedMisses) / float64(r.Insts) * 1000
}

// L1IMPKI returns instruction-cache misses per kilo-instruction
// (Section 5.7's prefix-overhead metric).
func (r *Result) L1IMPKI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.L1I.Misses+r.L1I.MergedMisses) / float64(r.Insts) * 1000
}
