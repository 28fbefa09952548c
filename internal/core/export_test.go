package core

import "testing"

// RunChecked is Run for one core and RunMulti's loop for several (without
// cancellation, host counters and the co-run snapshot), asserting on every
// step what the wakeup wheel takes for granted and the cycle loop does not
// check: a wakeup is scheduled for a later cycle than the current one, so
// once a cycle's stages have run its own bucket is empty; and no core's
// jump goes past its earliest pending wakeup, so every wakeup fires in the
// cycle it was scheduled for. It returns how many steps found a wakeup in
// the stepped core's overflow heap.
func RunChecked(t testing.TB, cores ...*Core) (farIters int) {
	for {
		now := never
		for _, c := range cores {
			if !c.finished() {
				now = min(now, c.cycle)
			}
		}
		if now == never {
			return farIters
		}
		for _, c := range cores {
			if c.finished() || c.cycle != now {
				continue
			}
			c.stats.HostIters++
			c.stepCycle()
			if c.wakeups.head[c.cycle&(wheelSize-1)] != 0 {
				t.Fatalf("cycle %d: a wakeup was scheduled for the current cycle or a whole turn ahead", c.cycle)
			}
			earliest := c.wakeups.earliest(c.cycle)
			if len(c.wakeups.far) > 0 {
				farIters++
			}
			if next, ok := c.skipTarget(); ok && !c.cfg.DebugNoSkip {
				c.applySkip(next)
			}
			c.advanceCycle()
			if c.cycle > earliest {
				t.Fatalf("clock moved to cycle %d past the wakeup pending for %d", c.cycle, earliest)
			}
		}
	}
}
