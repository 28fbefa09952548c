package core

import "math/bits"

// The scheduler keeps the BID (ready) and PRIO (ready-and-critical)
// vectors incrementally. Everything here is indexed by the waiting
// instruction's scheduler key (entry.slot): its ROB ring index under the
// age-ordered policies — which makes the vectors' bit order from the head
// the age order, see Core.selectByAge — and its RAND slot under SchedRandom.
//
//   - At dispatch an instruction counts its unready producers. Each of its
//     up to three dependences is a chain node, key*3+dep, linked through
//     Core.waiterNext, and a node is in one list at a time: the waiter
//     chain of a producer that has not executed, or a bucket of the wakeup
//     wheel once the producer's completion cycle is known.
//   - When a producer executes, execute moves its waiter chain to the wheel.
//   - issue() first takes the list due this cycle; a key whose last
//     dependence resolves sets its BID bit (and PRIO bit if critical).
//     Bits are cleared when the instruction issues. This core never
//     squashes dispatched work, so no other clearing path exists.
//
// Nothing is sorted. A wakeup less than wheelSize cycles out is pushed on
// the list of bucket at%wheelSize; it is always for a later cycle than the
// current one and the clock stops at every cycle that has a wakeup (a
// core's skip in RunMulti never jumps past earliest, which is why that is
// exact and not a bound), so a bucket holds one cycle's wakeups and
// due(now) finds exactly those. Their order is free:
// decrements and bit sets commute and nothing reads in between. The few
// wakeups further out, loads queued behind a DRAM bank, go to a binary
// heap (how few: DESIGN.md, "The wakeup wheel").

const (
	wheelSize = 512 // the wheel's span in cycles, a power of two
	never     = ^uint64(0)
)

// wakeupWheel holds the pending wakeups of one core; the zero value is
// empty.
type wakeupWheel struct {
	head [wheelSize]int32 // per bucket: its first node + 1, 0 if empty
	occ  [wheelSize / 64]uint64
	far  wakeupHeap // wakeups wheelSize or more cycles out
}

// schedule files node's wakeup for cycle at, which must be after now.
// next is the array the node lists are linked through.
func (w *wakeupWheel) schedule(next []int32, now, at uint64, node int32) {
	if at-now >= wheelSize {
		w.far.push(at, node)
		return
	}
	b := at & (wheelSize - 1)
	next[node] = w.head[b] - 1
	w.head[b] = node + 1
	w.occ[b>>6] |= 1 << (b & 63)
}

// due removes the wakeups of cycle now and returns them as a list through
// next (-1 if none).
func (w *wakeupWheel) due(next []int32, now uint64) int32 {
	b := now & (wheelSize - 1)
	list := w.head[b] - 1
	w.head[b] = 0
	w.occ[b>>6] &^= 1 << (b & 63)
	for len(w.far) > 0 && w.far[0].at <= now {
		node := w.far.pop().node
		next[node] = list
		list = node
	}
	return list
}

// earliest returns the cycle of the first wakeup pending after cycle now,
// or never: the occupancy words in ring order from now+1's, whose word the
// last step sees again, whole, for the buckets below now+1's.
func (w *wakeupWheel) earliest(now uint64) uint64 {
	at := never
	if len(w.far) > 0 {
		at = w.far[0].at
	}
	from := (now + 1) & (wheelSize - 1)
	for i := from >> 6; i <= from>>6+uint64(len(w.occ)); i++ {
		word := w.occ[i%uint64(len(w.occ))]
		if i == from>>6 {
			word &^= 1<<(from&63) - 1
		}
		if word != 0 {
			b := i<<6 + uint64(bits.TrailingZeros64(word))
			return min(at, now+1+(b-from)&(wheelSize-1))
		}
	}
	return at
}

// wakeup is a timed scheduler event: the outstanding-dependence count of
// node's instruction drops by one at cycle `at`.
type wakeup struct {
	at   uint64
	node int32
}

// wakeupHeap is a binary min-heap of wakeups ordered by cycle. It is a
// plain slice (no container/heap interface) so pushes and pops stay
// allocation-free once capacity is reached.
type wakeupHeap []wakeup

func (h *wakeupHeap) push(at uint64, node int32) {
	*h = append(*h, wakeup{at: at, node: node})
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
