package core

import (
	"testing"

	"crisp/internal/isa"
	"crisp/internal/program"
)

func TestSchedulerKindString(t *testing.T) {
	if SchedOldestFirst.String() != "ooo" || SchedCRISP.String() != "crisp" || SchedRandom.String() != "random" {
		t.Errorf("scheduler names: %v %v %v", SchedOldestFirst, SchedCRISP, SchedRandom)
	}
}

func TestLoadProfMetrics(t *testing.T) {
	lp := &LoadProf{}
	if lp.AMAT() != 0 || lp.LLCMissRatio() != 0 || lp.AvgMLP() != 0 {
		t.Errorf("zero-value LoadProf metrics not zero")
	}
	lp = &LoadProf{Count: 10, TotalLat: 500, LLCMiss: 4, MLPSum: 12}
	if lp.AMAT() != 50 {
		t.Errorf("AMAT = %v", lp.AMAT())
	}
	if lp.LLCMissRatio() != 0.4 {
		t.Errorf("miss ratio = %v", lp.LLCMissRatio())
	}
	if lp.AvgMLP() != 3 {
		t.Errorf("avg MLP = %v", lp.AvgMLP())
	}
}

func TestBranchProfMetrics(t *testing.T) {
	bp := &BranchProf{}
	if bp.MispredictRate() != 0 {
		t.Errorf("zero-value mispredict rate = %v", bp.MispredictRate())
	}
	bp = &BranchProf{Count: 8, Mispred: 2}
	if bp.MispredictRate() != 0.25 {
		t.Errorf("mispredict rate = %v", bp.MispredictRate())
	}
}

func TestResultMetrics(t *testing.T) {
	r := &Result{}
	if r.IPC() != 0 || r.BranchMPKI() != 0 || r.LLCMPKI() != 0 || r.L1IMPKI() != 0 {
		t.Errorf("zero-value Result metrics not zero")
	}
	r = &Result{Cycles: 1000, Insts: 2000, BranchMispreds: 4}
	r.LLC.Misses = 6
	r.LLC.MergedMisses = 2
	r.L1I.Misses = 1
	if r.IPC() != 2 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.BranchMPKI() != 2 {
		t.Errorf("branch MPKI = %v", r.BranchMPKI())
	}
	if r.LLCMPKI() != 4 {
		t.Errorf("LLC MPKI = %v", r.LLCMPKI())
	}
	if r.L1IMPKI() != 0.5 {
		t.Errorf("L1I MPKI = %v", r.L1IMPKI())
	}
}

// HostAllocs is the delta of runtime/metrics' cumulative heap-object
// counter across Run. The runtime advances that counter a span at a time,
// so the test makes the run allocate thousands of objects of one size (one
// exported LoadProf per static load) and allows a span's worth of lag.
func TestHostAllocsCountsTheRunsAllocations(t *testing.T) {
	const loads = 3000
	b := program.NewBuilder("manyloads")
	b.MovI(isa.R(1), 0x10000)
	for i := 0; i < loads; i++ {
		b.Load(isa.R(2), isa.R(1), 0)
	}
	b.Halt()
	res := runProg(t, DefaultConfig(), b.MustBuild(), nil, nil)
	if len(res.Loads) != loads {
		t.Fatalf("exported %d load profiles, want %d", len(res.Loads), loads)
	}
	if res.HostAllocs < loads-100 || res.HostAllocs > 2*loads {
		t.Errorf("HostAllocs = %d for a run that allocated %d profiles (and their map's buckets)", res.HostAllocs, loads)
	}
}
