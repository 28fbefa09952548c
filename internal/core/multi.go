package core

import (
	"fmt"
	"time"
)

// RunMulti steps the given cores in lockstep against one shared clock and
// returns each core's Result, indexed like cores. The cores must have been
// built over views of one cache.SharedHierarchy (RunMulti itself only
// requires that they start at cycle 0); a single core over a private
// hierarchy reproduces Core.Run exactly, which is what pins the refactor.
//
// Lockstep is load-bearing, not cosmetic: the shared LLC/DRAM busy state
// serializes same-cycle requests in arrival order, so all cores must reach
// a cycle before any core proceeds past it. Idle skipping therefore merges
// across cores — the clock jumps only when every live core proves its own
// skipTarget, and only to the minimum target. That min is safe for every
// core (any prefix of a proven-idle interval is proven idle), and a
// skipped interval makes no memory-system requests on any core, so no
// core's recorded completion times can be invalidated by a neighbour
// during the jump. Finished cores drop out of the merge and make no
// further requests; the survivors keep full-length skips.
//
// cancel is polled once per shared cycle; on cancellation the results
// reflect the simulated-so-far state, like a cancelled Core.Run. Host
// counters (HostNS/HostAllocs) are process-wide measurements from the
// RunMulti start to each core's finish — the cores interleave on one host
// thread, so per-core host attribution is not meaningful and the same
// wall/alloc window is reported to each.
func RunMulti(cores []*Core, cancel func() bool) []*Result {
	if len(cores) == 0 {
		return nil
	}
	startAllocs := cores[0].heapAllocs()
	start := time.Now()

	allowSkip := true
	for _, c := range cores {
		if c.cfg.DebugNoSkip {
			allowSkip = false
		}
	}

	live := make([]bool, len(cores))
	liveCount := 0
	coOpen := len(cores) >= 2
	finalize := func(i int) {
		live[i] = false
		liveCount--
		if coOpen {
			// First core out: snapshot every core's progress at this shared
			// cycle. Up to here all cores were live, so CoInsts/CoCycles is
			// each core's drain-free co-located rate (see Result.CoInsts).
			coOpen = false
			for _, c := range cores {
				c.stats.CoInsts = c.stats.Insts
				c.stats.CoCycles = cores[i].cycle
			}
		}
		cores[i].finishRun(start, startAllocs)
	}
	for i, c := range cores {
		live[i] = true
		liveCount++
		if c.finished() {
			finalize(i)
		}
	}

	for liveCount > 0 {
		if cancel != nil && cancel() {
			for i := range cores {
				if live[i] {
					finalize(i)
				}
			}
			break
		}
		for i, c := range cores {
			if live[i] {
				c.stats.HostIters++
				c.stepCycle()
			}
		}
		if allowSkip {
			target := ^uint64(0)
			merged := true
			for i, c := range cores {
				if !live[i] {
					continue
				}
				next, ok := c.skipTarget()
				if !ok {
					merged = false
					break
				}
				if next < target {
					target = next
				}
			}
			if merged {
				for i, c := range cores {
					if live[i] {
						c.applySkip(target)
					}
				}
			}
		}
		for i, c := range cores {
			if !live[i] {
				continue
			}
			c.advanceCycle()
			if c.finished() {
				finalize(i)
			}
		}
	}

	results := make([]*Result, len(cores))
	for i, c := range cores {
		results[i] = &c.stats
	}
	return results
}

// RunMultiWindow drives checkpoint-restored cores through one detailed
// sampling window in lockstep: the same shared clock, arrival-order
// memory serialization and min-across-cores idle-skip merge as a
// full-detail RunMulti, applied to cores whose MaxInsts budgets are the
// window length. A core that retires its budget first drops out of the
// merge while the neighbours finish theirs — the same drain semantics a
// full-detail co-run has at each core's own budget. Every core must
// carry a budget: the suite's kernels never halt, so a window core
// without one would never finish.
func RunMultiWindow(cores []*Core, cancel func() bool) []*Result {
	for i, c := range cores {
		if c.cfg.MaxInsts == 0 {
			panic(fmt.Sprintf("core: RunMultiWindow core %d has no instruction budget", i))
		}
	}
	return RunMulti(cores, cancel)
}
