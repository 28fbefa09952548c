package core

import (
	"fmt"
	"time"
)

// RunMulti steps the given cores against one shared clock and returns each
// core's Result, indexed like cores. The cores must have been built over
// views of one cache.SharedHierarchy (RunMulti itself only requires that
// they start at cycle 0); a single core over a private hierarchy
// reproduces Core.Run exactly, which is what pins the refactor.
//
// The clock is the least cycle over the live cores, and each iteration
// steps only the cores whose own cycle it is, in index order: the shared
// LLC/DRAM busy state serializes same-cycle requests in arrival order, so
// no core may pass a cycle another core has yet to step. Right after its
// step a core applies its own idle skip (skipTarget/applySkip) and sleeps
// ahead of the clock until the clock reaches its next event. That is
// exact, not an approximation: the skip proof is purely per-core, and a
// sleeping core makes no hierarchy call, so the shared levels see the same
// calls at the same cycles as if every core stepped every cycle, and a
// neighbour's activity meanwhile cannot create work for the sleeper (its
// completion times were fixed when its accesses issued). A finished core
// drops out and makes no further requests.
//
// cancel is polled once per iteration; on cancellation the results reflect
// the simulated-so-far state, like a cancelled Core.Run. Host counters
// (HostNS/HostAllocs) are process-wide measurements from the RunMulti
// start to each core's finish — the cores interleave on one host thread,
// so per-core host attribution is not meaningful and the same wall/alloc
// window is reported to each.
func RunMulti(cores []*Core, cancel func() bool) []*Result {
	if len(cores) == 0 {
		return nil
	}
	startAllocs := cores[0].heapAllocs()
	start := time.Now()

	live := make([]bool, len(cores))
	coOpen := len(cores) >= 2
	finalize := func(i int) {
		live[i] = false
		if coOpen {
			// First core out: snapshot every core's progress once every core
			// has stepped this cycle (a sleeper retires nothing until it
			// wakes). Up to here all cores were live, so CoInsts/CoCycles is
			// each core's drain-free co-located rate (see Result.CoInsts).
			coOpen = false
			for _, c := range cores {
				c.stats.CoInsts = c.stats.Insts
				c.stats.CoCycles = cores[i].cycle
			}
		}
		cores[i].finishRun(start, startAllocs)
	}
	now := never
	for i, c := range cores {
		live[i] = true
		if c.finished() {
			finalize(i)
		} else {
			now = min(now, c.cycle)
		}
	}

	for now != never {
		if cancel != nil && cancel() {
			for i := range cores {
				if live[i] {
					finalize(i)
				}
			}
			break
		}
		next, out := never, false
		for i, c := range cores {
			if !live[i] {
				continue
			}
			if c.cycle == now {
				c.stats.HostIters++
				c.stepCycle()
				if !c.cfg.DebugNoSkip {
					if t, ok := c.skipTarget(); ok {
						c.applySkip(t)
					}
				}
				c.advanceCycle()
				if c.finished() {
					out = true
					continue
				}
			}
			next = min(next, c.cycle)
		}
		if out {
			// Cores that finished this cycle finalize only after the pass,
			// so the first-out snapshot sees every core's step at it.
			for i, c := range cores {
				if live[i] && c.finished() {
					finalize(i)
				}
			}
		}
		now = next
	}

	results := make([]*Result, len(cores))
	for i, c := range cores {
		results[i] = &c.stats
	}
	return results
}

// RunMultiWindow drives checkpoint-restored cores through one detailed
// sampling window: the same shared clock, arrival-order memory
// serialization and per-core sleeping as a full-detail RunMulti, applied
// to cores whose MaxInsts budgets are the window length. A core that
// retires its budget first drops out while the neighbours finish theirs —
// the same drain semantics a full-detail co-run has at each core's own
// budget. Every core must carry a budget: the suite's kernels never halt,
// so a window core without one would never finish.
func RunMultiWindow(cores []*Core, cancel func() bool) []*Result {
	for i, c := range cores {
		if c.cfg.MaxInsts == 0 {
			panic(fmt.Sprintf("core: RunMultiWindow core %d has no instruction budget", i))
		}
	}
	return RunMulti(cores, cancel)
}
