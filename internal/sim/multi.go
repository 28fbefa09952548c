package sim

import (
	"context"
	"fmt"

	"crisp/internal/cache"
	"crisp/internal/core"
	"crisp/internal/dram"
	"crisp/internal/ibda"
	"crisp/internal/metrics"
)

// MultiResult is the outcome of one co-scheduled multi-core simulation:
// each core's full single-core Result (its Breakdown still partitions its
// own Cycles × CommitWidth exactly, and its LLC/DRAM fields hold its own
// share of the contended levels) plus the shared-level aggregates and the
// per-core attribution the aggregates decompose into.
type MultiResult struct {
	Cores []*core.Result `json:"cores"`

	LLC         cache.Stats   `json:"llc"`          // shared-LLC totals
	LLCPerCore  []cache.Stats `json:"llc_per_core"` // = LLC, split by requester
	DRAM        dram.Stats    `json:"dram"`
	DRAMPerCore []dram.Stats  `json:"dram_per_core"`

	// HostNS is the wall time of the whole lockstep run (the cores share
	// one host thread, so per-core host time is not meaningful). For a
	// sampled run it sums the windows' lockstep wall times.
	HostNS int64 `json:"host_ns"`

	// Sampled-run provenance (zero on full-detail runs): how many
	// detailed lockstep windows the aggregate merges, the functional
	// instructions executed across all cores to capture them, and the
	// capture's host wall time (counted once per set, however many
	// configs share it).
	SampledWindows int    `json:"sampled_windows,omitempty"`
	FFInsts        uint64 `json:"ff_insts,omitempty"`
	HostFFNS       int64  `json:"host_ff_ns,omitempty"`
}

// LLCOccupancyShare attributes shared-LLC demand activity per core
// (accesses reaching the LLC are the proxy for its capacity pressure).
func (m *MultiResult) LLCOccupancyShare() metrics.Attribution {
	a := metrics.Attribution{Name: "llc_accesses", PerCore: make([]uint64, len(m.LLCPerCore))}
	for i := range m.LLCPerCore {
		a.PerCore[i] = m.LLCPerCore[i].Accesses
	}
	return a
}

// DRAMBandwidthShare attributes DRAM data-bus occupancy per core: each
// read or write holds the bus for one burst, so transfer counts are
// proportional to consumed bandwidth.
func (m *MultiResult) DRAMBandwidthShare() metrics.Attribution {
	a := metrics.Attribution{Name: "dram_transfers", PerCore: make([]uint64, len(m.DRAMPerCore))}
	for i := range m.DRAMPerCore {
		a.PerCore[i] = m.DRAMPerCore[i].Reads + m.DRAMPerCore[i].Writes
	}
	return a
}

// RunMultiContext executes one multi-core co-scheduled simulation of the
// images under the per-core configs. It builds one shared memory system
// (a cache.SharedHierarchy: per-core private L1s over one contended LLC
// and DRAM), wires each image and config to a core over its own view, and
// steps all cores in lockstep to completion (core.RunMulti). imgs[i] runs
// on core i under cfgs[i]; the images are consumed. On cancellation it
// returns (nil, ctx.Err()).
func RunMultiContext(ctx context.Context, imgs []*Image, cfgs []Config) (*MultiResult, error) {
	n := len(imgs)
	if n == 0 || len(cfgs) != n {
		return nil, fmt.Errorf("sim: RunMulti needs one config per image (%d images, %d configs)", n, len(cfgs))
	}
	sh := cache.NewSharedHierarchy(cache.DefaultHierConfig(), n)
	cores := make([]*core.Core, n)
	for i := 0; i < n; i++ {
		view := sh.Views[i]
		attachPrefetcher(cfgs[i].Prefetcher, view)
		var marker core.Marker
		if cfgs[i].IBDA != nil {
			marker = attachIBDA(ibda.New(*cfgs[i].IBDA), imgs[i].Prog, view)
		}
		cores[i] = core.New(cfgs[i].Core, imgs[i].Prog, imgs[i].emulator(), view, marker)
	}

	results := core.RunMulti(cores, cancelCheck(ctx))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	return sharedResult(sh, results), nil
}

// sharedResult puts the shared levels' totals and per-requester split
// beside the cores' results of one lockstep run (or one lockstep window).
func sharedResult(sh *cache.SharedHierarchy, results []*core.Result) *MultiResult {
	n := len(results)
	m := &MultiResult{
		Cores:       results,
		LLC:         sh.LLC.Stats(),
		DRAM:        sh.Mem.Stats(),
		LLCPerCore:  make([]cache.Stats, n),
		DRAMPerCore: make([]dram.Stats, n),
	}
	for i := 0; i < n; i++ {
		m.LLCPerCore[i] = sh.LLC.RequesterStats(i)
		m.DRAMPerCore[i] = sh.Mem.RequesterStats(i)
		if results[i].HostNS > m.HostNS {
			// Each core reports start→its-finish wall time; the max is the
			// whole run.
			m.HostNS = results[i].HostNS
		}
	}
	return m
}
