package core

import "time"

// RefRunMulti exposes the oracle below to the core_test equivalence tests.
var RefRunMulti = refRunMulti

// refRunMulti is the lockstep driver RunMulti replaced, kept verbatim as
// the oracle for TestRunMultiMatchesOracle: every live core steps every
// shared cycle, and the clock jumps only when every live core proves its
// own skipTarget, and then only to the least of them.
func refRunMulti(cores []*Core, cancel func() bool) []*Result {
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
