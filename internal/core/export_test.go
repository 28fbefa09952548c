package core

import "testing"

// RunChecked is Run for one core and RunMulti's lockstep loop for several
// (without cancellation and host counters), asserting on every iteration
// what the wakeup wheel takes for granted and the cycle loop does not
// check: a wakeup is scheduled for a later cycle than the current one, so
// once a cycle's stages have run its own bucket is empty; and no jump, one
// core's or the minimum over several, goes past a core's earliest pending
// wakeup, so every wakeup fires in the cycle it was scheduled for. It
// returns how many iterations found a wakeup in some core's overflow heap.
func RunChecked(t testing.TB, cores ...*Core) (farIters int) {
	earliest := make([]uint64, len(cores))
	for {
		var live []*Core
		for _, c := range cores {
			if !c.finished() {
				live = append(live, c)
			}
		}
		if len(live) == 0 {
			return farIters
		}
		target, merged := never, true
		for i, c := range live {
			c.stats.HostIters++
			c.stepCycle()
			if c.wakeups.head[c.cycle&(wheelSize-1)] != 0 {
				t.Fatalf("cycle %d: a wakeup was scheduled for the current cycle or a whole turn ahead", c.cycle)
			}
			earliest[i] = c.wakeups.earliest(c.cycle)
			if len(c.wakeups.far) > 0 {
				farIters++
			}
			next, ok := c.skipTarget()
			merged = merged && ok && !c.cfg.DebugNoSkip
			target = min(target, next)
		}
		for i, c := range live {
			if merged {
				c.applySkip(target)
			}
			c.advanceCycle()
			if c.cycle > earliest[i] {
				t.Fatalf("clock moved to cycle %d past the wakeup pending for %d", c.cycle, earliest[i])
			}
		}
	}
}
