package prefetch

import "slices"

// table is the associative structure behind Stream, Stride and GHB's index:
// fully associative, keyed by uint64, at most cap entries, true LRU. Every
// hit and insert stamps its entry with the next tick of clock, so stamps are
// unique and a full table's victim is the one entry with the lowest. Entries
// sit by value in three parallel slices that grow by append up to cap: a key
// scan walks only keys, a victim search only stamps, and no access
// allocates once the table is full. A hint names a slot in 16 bits, so cap
// is at most 1<<16.
//
// hint is, per hash of a key, the slot a key with that hash was last found
// or put in: where get looks before it scans. Derived state and only ever a
// guess, as cache.Cache.hint is — never encoded, zero in a new or decoded
// table, kept by clone (whose slots are its original's), and get compares
// the key before believing it.
type table[V any] struct {
	keys, stamp []uint64
	vals        []V
	cap         int
	clock       uint64
	hint        [1 << hintBits]uint16
}

const hintBits = 9

// hintOf is key's index into hint: the top bits of a Fibonacci hash.
func hintOf(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> (64 - hintBits) }

func (t *table[V]) clone() table[V] {
	c := *t
	c.keys = append([]uint64(nil), t.keys...)
	c.stamp = append([]uint64(nil), t.stamp...)
	c.vals = append([]V(nil), t.vals...)
	return c
}

// get returns key's entry, now the most recently used, or nil; the pointer
// is good until the next put. A table holds a key at most once, so the
// hinted slot, if its key matches, is the slot the scan would find.
func (t *table[V]) get(key uint64) *V {
	h := &t.hint[hintOf(key)]
	s := int(*h)
	if s >= len(t.keys) || t.keys[s] != key {
		if s = slices.Index(t.keys, key); s < 0 {
			return nil
		}
		*h = uint16(s)
	}
	t.clock++
	t.stamp[s] = t.clock
	return &t.vals[s]
}

// put adds key, which the table must not hold, as the most recently used
// entry: in a new slot until there are cap, then over the least recent one.
func (t *table[V]) put(key uint64, v V) {
	t.clock++
	s := len(t.keys)
	if s < t.cap {
		t.keys, t.stamp, t.vals = append(t.keys, key), append(t.stamp, t.clock), append(t.vals, v)
	} else {
		s = 0
		oldest := t.stamp[0]
		for i, st := range t.stamp {
			if st < oldest { // both assigned, so the compiler selects, not branches
				s, oldest = i, st
			}
		}
		t.keys[s], t.stamp[s], t.vals[s] = key, t.clock, v
	}
	t.hint[hintOf(key)] = uint16(s)
}
