package core

// The scheduler keeps the BID (ready) and PRIO (ready-and-critical)
// vectors incrementally instead of rebuilding them by an O(RSSize) scan
// with per-slot dependence checks every cycle. Everything here is indexed
// by the waiting instruction's scheduler key (entry.slot): its ROB ring
// index under the age-ordered policies — which makes the vectors' bit
// order the age order, see Core.pick — and its RAND slot under SchedRandom.
//
//   - At dispatch each instruction counts its unready producers. Producers
//     that have already executed contribute a timed wakeup at their
//     completion cycle; producers still in flight get the key chained
//     onto their waiter list.
//   - When a producer executes, its waiter chain is converted into timed
//     wakeups at the producer's completion cycle.
//   - issue() drains due wakeups first; a key whose last outstanding
//     dependence resolves sets its BID bit (and PRIO bit if critical).
//   - Bits are cleared when the instruction actually issues. This core
//     never squashes dispatched work (mispredicted branches stall fetch
//     instead of flushing the RS), so readiness is monotone and no other
//     clearing path exists.
//
// The net effect: zero allocations and O(due events) bookkeeping per
// cycle, with selection itself word-parallel over the persistent vectors.

// wakeup is a timed scheduler event: the outstanding-dependence count of
// the instruction keyed slot drops by one at cycle `at`.
type wakeup struct {
	at   uint64
	slot int32
}

// wakeupHeap is a binary min-heap of wakeups ordered by cycle. It is a
// plain slice (no container/heap interface) so pushes and pops stay
// allocation-free once capacity is reached.
type wakeupHeap []wakeup

func (h *wakeupHeap) push(at uint64, slot int32) {
	*h = append(*h, wakeup{at: at, slot: slot})
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// pop removes and returns the earliest wakeup. The caller must ensure the
// heap is non-empty.
func (h *wakeupHeap) pop() wakeup {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && s[l].at < s[min].at {
			min = l
		}
		if r < len(s) && s[r].at < s[min].at {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
