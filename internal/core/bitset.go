package core

import "math/bits"

// Bitset is a fixed-capacity bit vector used for the scheduler's BID
// (ready) and PRIO (ready-and-critical) vectors. The hot-path operations
// (copy, count, rank selection) work a 64-bit word at a time so selection
// cost scales with capacity/64.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a bitset with capacity n bits.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Words exposes the backing words for word-parallel consumers (the RAND
// free-slot draw). The slice aliases the bitset; bits at positions >=
// Len() are always zero.
func (b *Bitset) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// Get reports bit i.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// Reset clears all bits.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// CopyFrom overwrites b with the contents of src. The two bitsets must
// have the same capacity.
func (b *Bitset) CopyFrom(src *Bitset) {
	copy(b.words, src.words)
}

// Any reports whether any bit is set.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// SelectNth returns the index of the k-th set bit (k = 0 selects the
// lowest), or -1 if fewer than k+1 bits are set. It skips whole words by
// popcount and resolves the final word with a branchless rank search.
func (b *Bitset) SelectNth(k int) int {
	if k < 0 {
		return -1
	}
	for wi, w := range b.words {
		c := bits.OnesCount64(w)
		if k >= c {
			k -= c
			continue
		}
		// The k-th set bit lives in this word: peel k lower set bits.
		for ; k > 0; k-- {
			w &= w - 1
		}
		return wi<<6 + bits.TrailingZeros64(w)
	}
	return -1
}
