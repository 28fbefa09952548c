// Package core implements the cycle-level out-of-order core model: a
// decoupled frontend with TAGE/BTB/RAS prediction and FDIP-style
// instruction prefetch, register renaming, a reorder buffer, a unified
// reservation station scheduled by an age-matrix picker (with the CRISP
// PRIO extension of Section 4.2), load/store queues with store-to-load
// forwarding, per-class issue ports, and in-order commit.
package core

import "math/bits"

// AgeMatrix models the RAND-scheduler age matrix of Section 4.2: in
// hardware every IQ slot keeps an N-bit age vector whose bit j is set iff
// slot j holds an older instruction, and the oldest instruction among a
// candidate set (the BID or PRIO vector) is the one whose age vector ANDed
// with the candidates is all zeros — the NOR-reduction select of Figure 6.
//
// The matrix's rows induce exactly the insertion order of the live slots,
// and insertion (dispatch) is in program order, so that order is the ROB
// order. The age-ordered policies therefore key the BID/PRIO vectors by
// ROB ring index and select in ring order from the head; which slot an
// instruction sits in is unobservable to them and none is modelled. Only
// SchedRandom, which ranks ready instructions by slot number, allocates
// RAND slots, and this type is what it needs: the occupancy vector and the
// free-slot draw. The hardware cost model is unchanged.
type AgeMatrix struct {
	n        int
	occupied *Bitset
}

// NewAgeMatrix returns an age matrix for an IQ with n slots.
func NewAgeMatrix(n int) *AgeMatrix {
	return &AgeMatrix{n: n, occupied: NewBitset(n)}
}

// Insert occupies the given free slot with a new instruction.
func (m *AgeMatrix) Insert(slot int) {
	if m.occupied.Get(slot) {
		panic("core: AgeMatrix.Insert into occupied slot")
	}
	m.occupied.Set(slot)
}

// Remove frees a slot at issue.
func (m *AgeMatrix) Remove(slot int) { m.occupied.Clear(slot) }

// FreeSlot returns a free slot selected pseudo-randomly (the RAND
// insertion policy), or -1 when the IQ is full. The caller supplies the
// random word; determinism is preserved by seeding upstream. Selection
// ranks the k-th clear bit of the occupancy vector word-parallel.
func (m *AgeMatrix) FreeSlot(rnd uint64) int {
	free := m.n - m.occupied.Count()
	if free == 0 {
		return -1
	}
	k := int(rnd % uint64(free))
	occ := m.occupied.Words()
	for wi, w := range occ {
		inv := ^w
		if wi == len(occ)-1 {
			if extra := m.n & 63; extra != 0 {
				inv &= (1 << uint(extra)) - 1
			}
		}
		c := bits.OnesCount64(inv)
		if k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			inv &= inv - 1
		}
		return wi<<6 + bits.TrailingZeros64(inv)
	}
	return -1
}
