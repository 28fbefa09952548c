// Package branch implements the branch-prediction structures of the
// simulated frontend: a TAGE direction predictor (the paper's Table 1
// baseline), a perfect predictor for the perfect-BP studies, a
// set-associative branch target buffer, and a return address stack.
//
// Predictors follow the trace-driven convention: PredictAndTrain returns
// the prediction for a branch and immediately trains on the actual
// outcome. The timing cost of a misprediction is modeled by the core, not
// here; this package models accuracy.
package branch

// Predictor predicts conditional branch directions.
type Predictor interface {
	// PredictAndTrain returns the predicted direction for the branch at pc
	// and trains the predictor with the actual outcome.
	PredictAndTrain(pc uint64, actual bool) bool
}

// Perfect is an oracle direction predictor (used for the perfect-BP
// studies of Section 5.3).
type Perfect struct{}

// PredictAndTrain returns the actual outcome.
func (Perfect) PredictAndTrain(_ uint64, actual bool) bool { return actual }

func sat(c int8, up bool, lo, hi int8) int8 {
	if up {
		if c < hi {
			return c + 1
		}
		return c
	}
	if c > lo {
		return c - 1
	}
	return c
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a set-associative branch target buffer mapping branch PCs to
// targets. Table 1: 8K entries. It models whether the fetch stage knows a
// taken branch's target; misses cost a decode redirect bubble.
type BTB struct {
	sets       int
	ways       int
	tags       []uint64
	valid      []bool
	targets    []int
	lru        []uint8
	hits, miss uint64
}

// NewBTB returns a BTB with the given total entry count and associativity.
func NewBTB(entries, ways int) *BTB {
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	return &BTB{
		sets: sets, ways: ways,
		tags:    make([]uint64, sets*ways),
		valid:   make([]bool, sets*ways),
		targets: make([]int, sets*ways),
		lru:     make([]uint8, sets*ways),
	}
}

// Lookup returns the predicted target for the branch at pc and whether the
// BTB hit.
func (b *BTB) Lookup(pc uint64) (target int, ok bool) {
	base := int(pc%uint64(b.sets)) * b.ways
	for w := 0; w < b.ways; w++ {
		if b.valid[base+w] && b.tags[base+w] == pc {
			b.hits++
			b.touch(base, w)
			return b.targets[base+w], true
		}
	}
	b.miss++
	return 0, false
}

// Insert records the target for the branch at pc, evicting LRU on
// conflict.
func (b *BTB) Insert(pc uint64, target int) {
	base := int(pc%uint64(b.sets)) * b.ways
	victim := 0
	for w := 0; w < b.ways; w++ {
		if !b.valid[base+w] || b.tags[base+w] == pc {
			victim = w
			break
		}
		if b.lru[base+w] > b.lru[base+victim] {
			victim = w
		}
	}
	b.tags[base+victim] = pc
	b.valid[base+victim] = true
	b.targets[base+victim] = target
	b.touch(base, victim)
}

func (b *BTB) touch(base, way int) {
	for w := 0; w < b.ways; w++ {
		if b.lru[base+w] < 255 {
			b.lru[base+w]++
		}
	}
	b.lru[base+way] = 0
}

// Stats returns hit and miss counts.
func (b *BTB) Stats() (hits, misses uint64) { return b.hits, b.miss }

// Clone returns a deep copy of the BTB's warmed contents with zeroed
// hit/miss counters (warming must not pollute measured-window stats).
func (b *BTB) Clone() *BTB {
	return &BTB{
		sets: b.sets, ways: b.ways,
		tags:    append([]uint64(nil), b.tags...),
		valid:   append([]bool(nil), b.valid...),
		targets: append([]int(nil), b.targets...),
		lru:     append([]uint8(nil), b.lru...),
	}
}

// RAS is a return address stack. Overflow wraps (oldest entries are
// clobbered), underflow mispredicts, as in real hardware.
type RAS struct {
	stack []int
	top   int
	depth int
}

// NewRAS returns a RAS with the given entry count.
func NewRAS(entries int) *RAS { return &RAS{stack: make([]int, entries)} }

// Push records a return address at a call.
func (r *RAS) Push(retPC int) {
	r.stack[r.top] = retPC
	r.top = (r.top + 1) % len(r.stack)
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the target of a return. ok is false on underflow.
func (r *RAS) Pop() (retPC int, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.depth--
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	return r.stack[r.top], true
}

// Clone returns a deep copy of the stack.
func (r *RAS) Clone() *RAS {
	return &RAS{stack: append([]int(nil), r.stack...), top: r.top, depth: r.depth}
}
