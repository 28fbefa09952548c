package core

import (
	"math/rand"
	"testing"
)

// naive reference implementations, one bit at a time. firstFrom and
// countRing, checked here like the Bitset methods, are the select oracle's
// (select_test.go).

func naiveFirstFrom(b *Bitset, from int) int {
	for i := 0; i < b.Len(); i++ {
		if j := (from + i) % b.Len(); b.Get(j) {
			return j
		}
	}
	return -1
}

func naiveCountRing(b *Bitset, from, to int) int {
	c := 0
	for i := from; i != to; i = (i + 1) % b.Len() {
		if b.Get(i) {
			c++
		}
	}
	return c
}

func naiveSelectNth(b *Bitset, k int) int {
	if k < 0 {
		return -1
	}
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

func TestBitsetFirstFrom(t *testing.T) {
	b := NewBitset(256)
	for _, i := range []int{1, 63, 64, 130, 255} {
		b.Set(i)
	}
	cases := []struct{ from, want int }{
		{0, 1},
		{1, 1},     // hit at from itself
		{2, 63},    // rest of the starting word
		{64, 64},   // exactly on a word boundary
		{65, 130},  // next word
		{131, 255}, // across an entirely empty stretch
		{255, 255}, // last bit
		{200, 255},
	}
	for _, c := range cases {
		if got := firstFrom(b, c.from); got != c.want {
			t.Errorf("firstFrom(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	b.Clear(255)
	b.Clear(130)
	// Nothing at or after from: the scan wraps to the low words, and for a
	// from inside word 1 comes back to the bits of word 1 below it.
	for _, c := range []struct{ from, want int }{{131, 1}, {255, 1}, {65, 1}} {
		if got := firstFrom(b, c.from); got != c.want {
			t.Errorf("wrapped firstFrom(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	b.Clear(1)
	b.Clear(63)
	if got := firstFrom(b, 100); got != 64 {
		t.Errorf("firstFrom(100) with only bit 64 = %d, want 64 (low half of the starting word)", got)
	}
	if got := firstFrom(NewBitset(130), 7); got != -1 {
		t.Errorf("empty firstFrom = %d, want -1", got)
	}
}

func TestBitsetCountRing(t *testing.T) {
	b := NewBitset(128)
	for _, i := range []int{0, 5, 63, 64, 100, 127} {
		b.Set(i)
	}
	cases := []struct{ from, to, want int }{
		{0, 0, 0},     // empty range
		{0, 1, 1},     // to is exclusive
		{0, 64, 3},    // whole first word
		{5, 100, 3},   // from inclusive, to exclusive
		{100, 5, 3},   // wraps: 100, 127, 0
		{127, 0, 1},   // wraps at the very end
		{64, 63, 5},   // everything but bit 63
		{101, 100, 5}, // everything but bit 100
	}
	for _, c := range cases {
		if got := countRing(b, c.from, c.to); got != c.want {
			t.Errorf("countRing(%d, %d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestBitsetSelectNth(t *testing.T) {
	b := NewBitset(200)
	set := []int{3, 63, 64, 100, 128, 199} // spans three words
	for _, i := range set {
		b.Set(i)
	}
	for k, want := range set {
		if got := b.SelectNth(k); got != want {
			t.Errorf("SelectNth(%d) = %d, want %d", k, got, want)
		}
	}
	if got := b.SelectNth(len(set)); got != -1 {
		t.Errorf("SelectNth past count = %d, want -1", got)
	}
	if got := b.SelectNth(-1); got != -1 {
		t.Errorf("SelectNth(-1) = %d, want -1", got)
	}
}

// TestBitsetProperty cross-checks the word-parallel primitives against the
// naive bit-at-a-time references on random contents, including sizes that
// are not multiples of 64.
func TestBitsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 63, 64, 65, 128, 160, 257} {
		for trial := 0; trial < 50; trial++ {
			b := NewBitset(n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					b.Set(i)
				}
			}
			for from := 0; from < n; from++ {
				if got, want := firstFrom(b, from), naiveFirstFrom(b, from); got != want {
					t.Fatalf("n=%d firstFrom(%d) = %d, want %d", n, from, got, want)
				}
				to := rng.Intn(n)
				if got, want := countRing(b, from, to), naiveCountRing(b, from, to); got != want {
					t.Fatalf("n=%d countRing(%d, %d) = %d, want %d", n, from, to, got, want)
				}
			}
			for k := -1; k <= b.Count()+1; k++ {
				if got, want := b.SelectNth(k), naiveSelectNth(b, k); got != want {
					t.Fatalf("n=%d SelectNth(%d) = %d, want %d", n, k, got, want)
				}
			}
			// Count/Any stay consistent with the reference view.
			cnt := 0
			for i := 0; i < n; i++ {
				if b.Get(i) {
					cnt++
				}
			}
			if b.Count() != cnt || b.Any() != (cnt > 0) {
				t.Fatalf("n=%d Count=%d Any=%v, want %d/%v", n, b.Count(), b.Any(), cnt, cnt > 0)
			}
		}
	}
}
