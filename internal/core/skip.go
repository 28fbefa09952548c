package core

import "crisp/internal/isa"

// Next-event idle-cycle skipping.
//
// The timing model is fully latency-scheduled: every future state change
// is carried by a recorded completion time (`doneAt`, the wakeup heap,
// `redirectUntil`, `fetchBlockedUntil`, the fetch queue's per-µop
// dispatch-ready times). When a cycle ends with no stage able to make
// forward progress, the earliest of those times is the first cycle at
// which anything *can* happen, and every cycle before it would replay an
// identical no-op: commit re-charges the same stall bucket, issue drains
// no wakeups, dispatch re-blocks on the same frozen resource, fetch stays
// stalled. skipTarget computes that event horizon and applySkip jumps the
// clock straight to it, bulk-charging the interval exactly as the
// per-cycle path would have — the exact-partition invariant
// Breakdown.Total() == Cycles × CommitWidth holds by construction on the
// skip path too, and every counter (ROBHeadStalls, per-PC HeadStall,
// FetchStallCycle) receives the same totals. Jumps are clipped to the
// next occupancy-sample and UPC-window boundary so sampled histograms and
// UPC timelines observe the same cycles they would per-cycle; the result
// is cycle-exact and pinned byte-identical by the harness goldens and
// TestSkipEquivalence.

// skipTarget runs after the four stages of the current cycle. If it can
// prove cycles cycle+1 .. next-1 are no-ops for some future event time
// `next`, it returns (next, true); the caller then charges the interval
// via applySkip. Any condition it cannot prove simply suppresses the jump
// — skipping is never required for correctness, only for host speed.
//
// The proof is purely per-core: it reads only this core's frozen pipeline
// state and already-recorded completion times. That is what lets the
// multi-core driver sleep each core to its own `next` while its
// neighbours keep stepping — their activity during the interval cannot
// create work for this core before `next` (all of this core's in-flight
// completion times were fixed when the accesses were issued).
func (c *Core) skipTarget() (uint64, bool) {
	if c.finished() {
		return 0, false // the run ends at the next loop check; don't pad Cycles
	}
	if c.readyBid.Any() {
		return 0, false // selection candidates exist: issue can proceed next cycle
	}
	next := never

	// Commit: a done ROB head retires at doneAt. A not-yet-issued head
	// has no timed event of its own — it becomes ready only via the
	// wakeup heap, which is covered below.
	if c.headSeq != c.tailSeq {
		if e := c.robEntry(c.headSeq); e.done {
			if e.doneAt <= c.cycle+1 {
				return 0, false // head committable next cycle
			}
			next = e.doneAt
		}
	}

	// Issue: the earliest pending wakeup is the first cycle any waiting
	// instruction can become a selection candidate (issue() already took
	// this cycle's). The wheel relies on this being the exact cycle: a
	// jump past a wakeup would leave it in its bucket for another turn.
	next = min(next, c.wakeups.earliest(c.cycle))

	// Dispatch: a queued µop past its frontend latency dispatches as soon
	// as the blocking backend resource frees — and those resources only
	// free through commit or issue events, which are already in the min.
	// If no resource blocks it, dispatch proceeds next cycle: no skip.
	if c.fqLen > 0 {
		f := &c.fetchQ[c.fqHead]
		if f.dispatchReadyAt > c.cycle {
			if f.dispatchReadyAt < next {
				next = f.dispatchReadyAt
			}
		} else {
			op := f.d.Inst.Op
			blocked := c.tailSeq-c.headSeq >= uint64(c.cfg.ROBSize) ||
				(op == isa.OpLoad && c.lqCount >= c.cfg.LoadQueue) ||
				(op == isa.OpStore && c.sqCount >= c.cfg.StoreQueue) ||
				c.rsCount >= c.cfg.RSSize
			if !blocked {
				return 0, false
			}
		}
	}

	// Fetch: if the frontend could push µops next cycle the machine is
	// not idle. Blocked-on-branch states (mispredictPending, an
	// unresolved waiting branch) clear through dispatch/issue events;
	// only the timed block needs its own entry in the min.
	if !c.streamDone && !c.mispredictPending && c.waitingBranchSeq < 0 && c.fqLen < c.cfg.FTQSize {
		if c.fetchBlockedUntil <= c.cycle+1 {
			return 0, false
		}
	}
	if c.fetchBlockedUntil > c.cycle && c.fetchBlockedUntil < next {
		next = c.fetchBlockedUntil
	}
	// The redirect window's end flips the empty-ROB stall bucket from
	// branch_redirect to frontend, so it bounds any bulk charge.
	if c.redirectUntil > c.cycle && c.redirectUntil < next {
		next = c.redirectUntil
	}

	// Clip to the observability boundaries so sampling is unchanged: the
	// next occupancy sample (the loop lands on it and samples normally)
	// and the next UPC-window edge (the post-increment check fires on it).
	if b := (c.cycle | c.occMask) + 1; b < next {
		next = b
	}
	if c.cfg.UPCWindow > 0 {
		w := uint64(c.cfg.UPCWindow)
		if b := c.cycle - c.cycle%w + w; b < next {
			next = b
		}
	}

	if next == never || next <= c.cycle+1 {
		return 0, false
	}
	return next, true
}

// applySkip charges cycles cycle+1 .. next-1 in bulk and sets
// cycle = next-1 (the loop's increment then lands exactly on the event
// cycle). next is the value skipTarget() just proved, so next > cycle+1;
// both drivers, Core.Run and RunMulti, apply a core's own target.
func (c *Core) applySkip(next uint64) {
	delta := next - c.cycle - 1 // skipped cycle values: cycle+1 .. next-1

	// Bulk accounting: exactly what commit()/fetch() would have recorded
	// on each skipped cycle. The bucket is recomputed here — after this
	// cycle's dispatch — because the skipped commits consume the dispStall
	// dispatch just set, not the value this cycle's own commit saw.
	if c.headSeq == c.tailSeq {
		c.stats.Breakdown.Stalls[c.emptyBucket()] += delta * uint64(c.cfg.CommitWidth)
	} else {
		e := c.robEntry(c.headSeq)
		c.stats.Breakdown.Stalls[c.headBucket(e)] += delta * uint64(c.cfg.CommitWidth)
		c.stats.ROBHeadStalls += delta
		if e.d.Inst.Op == isa.OpLoad {
			c.loadProf(e.d.PC).HeadStall += delta
		}
	}
	if c.fetchBlockedUntil > c.cycle || c.mispredictPending || c.waitingBranchSeq >= 0 {
		c.stats.FetchStallCycle += delta
	}
	c.stats.SkippedCycles += delta
	c.cycle = next - 1

	// What stays exact without per-cycle replay, and why:
	//   - metrics.Bucket choice is frozen: headBucket reads only the head
	//     entry (frozen — nothing issues or commits before `next`), the
	//     empty readyBid, and dispStall (re-derived identically by the
	//     blocked dispatch each skipped cycle); emptyBucket's redirect
	//     test is frozen by the redirectUntil clip.
	//   - No hierarchy call happens on skipped cycles (commit/issue are
	//     the only stages that touch it, and both are provably inert), so
	//     cache, DRAM and prefetcher state see the same access stream.
	//   - upcAccum is untouched (no retirement), so the UPC window that
	//     closes at the clipped boundary reads the same value.
}
