package prefetch

import (
	"cmp"
	"fmt"
	"sort"

	"crisp/internal/codec"
)

// This file serializes warmed prefetcher training state for the
// persistent checkpoint store. Encoding is type-tagged (mirroring
// Clone's type switch) and a table's entries are written from least to
// most recently used, so one state has one encoding — the store's round-trip
// and determinism tests rely on that — and decodes to the same LRU order.

// Type tags in the encoded form. Order is part of the format; new kinds
// append. tagNextLine is reserved (a next-line prefetcher, since removed,
// had it) and decodes to an error. tagComposite is BOPStream's: a part
// count, always 2, then its BOP and its Stream, each with its own tag.
const (
	tagNil = iota
	tagNextLine
	tagStride
	tagStream
	tagBOP
	tagGHB
	tagComposite
)

// maxEntries bounds decoded table sizes; codec.Reader.Len also checks a
// count against the bytes left.
const maxEntries = 1 << 24

// maxDegree bounds a decoded prefetch degree, which OnAccess loops to, and
// maxGHBHead a decoded miss count, which OnAccess increments and indexes by.
const maxDegree, maxGHBHead = 64, 1 << 48

// encodeTable writes t's entries from least to most recently used, each as
// its key and what val writes: the order stands for the stamps.
func encodeTable[V any](w *codec.Writer, t *table[V], val func(*V)) {
	order := make([]int, len(t.keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return t.stamp[order[i]] < t.stamp[order[j]] })
	w.U32(uint32(len(order)))
	for _, s := range order {
		w.U64(t.keys[s])
		val(&t.vals[s])
	}
}

// decodeTable reads what encodeTable wrote, entrySize bytes an entry, into
// a table of the given capacity. It refuses no capacity, one no hint names a
// slot of, more entries than it, and a key twice (get finds only the first).
func decodeTable[V any](r *codec.Reader, what string, capacity, entrySize int, val func() V) (table[V], error) {
	t := table[V]{cap: capacity}
	n, err := r.Len(uint64(r.U32()), what, 0, maxEntries, entrySize)
	if err != nil {
		return t, err
	}
	if capacity < 1 || capacity > maxTableCap || n > capacity {
		return t, fmt.Errorf("prefetch: %s capacity %d out of range (%d entries)", what, capacity, n)
	}
	for i := 0; i < n; i++ {
		k := r.U64()
		if t.get(k) != nil {
			return t, fmt.Errorf("prefetch: %s repeats key %#x", what, k)
		}
		t.put(k, val())
	}
	return t, r.Err()
}

// Encode serializes p (nil allowed: the no-prefetcher configuration).
func Encode(w *codec.Writer, p Prefetcher) {
	switch p := p.(type) {
	case nil:
		w.U8(tagNil)
	case *Stride:
		w.U8(tagStride)
		w.Int(p.table.cap)
		w.Int(p.Distance)
		encodeTable(w, &p.table, func(e *strideEntry) { w.U64(e.lastAddr); w.I64(e.stride); w.I8(e.conf) })
	case *Stream:
		w.U8(tagStream)
		w.Int(p.regions.cap)
		w.Int(p.Degree)
		encodeTable(w, &p.regions, func(e *streamEntry) { w.I64(e.lastLine); w.I64(e.dir); w.I8(e.count) })
	case *BOP:
		w.U8(tagBOP)
		w.U32(uint32(len(p.rr)))
		for _, v := range p.rr {
			w.U64(v)
		}
		w.U64(p.rrMask)
		w.U32(uint32(len(p.offsets)))
		for _, o := range p.offsets {
			w.I64(o)
		}
		for _, s := range p.scores {
			w.Int(s)
		}
		w.Int(p.testIdx)
		w.Int(p.round)
		w.I64(p.active)
		w.Int(p.ScoreMax)
		w.Int(p.RoundMax)
		w.Int(p.BadScore)
	case *GHB:
		w.U8(tagGHB)
		w.Int(p.size)
		w.Int(p.head)
		w.Int(p.Depth)
		w.U32(uint32(len(p.buf)))
		for _, e := range p.buf {
			w.U64(e.addr)
			w.Int(e.prev)
			w.Int(e.id)
		}
		encodeTable(w, &p.index, func(v *int) { w.Int(*v) })
	case *BOPStream:
		w.U8(tagComposite)
		w.U32(2)
		Encode(w, p.BOP)
		Encode(w, p.Stream)
	default:
		panic("prefetch: Encode: unknown prefetcher type")
	}
}

// Decode reconstructs a prefetcher encoded by Encode. A tagNil encoding
// decodes to (nil, nil).
func Decode(r *codec.Reader) (Prefetcher, error) {
	tag := r.U8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if tag != tagComposite {
		return decodeKind(r, tag)
	}
	// BOPStream's two parts are fixed, so each is read as its one kind: a
	// part is never a pair, and nothing nests.
	if n := r.U32(); n != 2 || r.Err() != nil {
		return nil, cmp.Or(r.Err(), fmt.Errorf("prefetch: bop+stream has %d parts, want 2", n))
	}
	var parts [2]Prefetcher
	for i, want := range [2]uint8{tagBOP, tagStream} {
		if tag := r.U8(); tag != want || r.Err() != nil {
			return nil, cmp.Or(r.Err(), fmt.Errorf("prefetch: bop+stream part %d has tag %d, want %d", i, tag, want))
		}
		var err error
		if parts[i], err = decodeKind(r, want); err != nil {
			return nil, err
		}
	}
	return &BOPStream{BOP: parts[0].(*BOP), Stream: parts[1].(*Stream)}, nil
}

// decodeKind decodes what Encode wrote after any tag but the pair's.
func decodeKind(r *codec.Reader, tag uint8) (Prefetcher, error) {
	switch tag {
	case tagNil:
		return nil, nil
	case tagStride:
		capacity, distance := r.Int(), r.Int()
		t, err := decodeTable(r, "stride table", capacity, 25, func() strideEntry {
			return strideEntry{lastAddr: r.U64(), stride: r.I64(), conf: r.I8()}
		})
		if err != nil {
			return nil, err
		}
		return &Stride{table: t, Distance: distance}, nil
	case tagStream:
		capacity, degree := r.Int(), r.Int()
		if degree > maxDegree {
			return nil, fmt.Errorf("prefetch: stream degree %d out of range", degree)
		}
		t, err := decodeTable(r, "stream table", capacity, 25, func() streamEntry {
			return streamEntry{lastLine: r.I64(), dir: r.I64(), count: r.I8()}
		})
		if err != nil {
			return nil, err
		}
		return &Stream{regions: t, Degree: degree}, nil
	case tagBOP:
		p := &BOP{}
		n, err := r.Len(uint64(r.U32()), "BOP rr table", 1, maxEntries, 8)
		if err != nil {
			return nil, err
		}
		p.rr = make([]uint64, n)
		for i := range p.rr {
			p.rr[i] = r.U64()
		}
		p.rrMask = r.U64()
		if p.rrMask != uint64(n-1) {
			return nil, fmt.Errorf("prefetch: BOP rr mask %d does not match %d entries", p.rrMask, n)
		}
		no, err := r.Len(uint64(r.U32()), "BOP offset list", 1, maxEntries, 16)
		if err != nil {
			return nil, err
		}
		p.offsets = make([]int64, no)
		for i := range p.offsets {
			p.offsets[i] = r.I64()
		}
		p.scores = make([]int, no)
		for i := range p.scores {
			p.scores[i] = r.Int()
		}
		p.testIdx = r.Int()
		p.round = r.Int()
		p.active = r.I64()
		p.ScoreMax = r.Int()
		p.RoundMax = r.Int()
		p.BadScore = r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if p.testIdx < 0 || p.testIdx >= no {
			return nil, fmt.Errorf("prefetch: BOP test index %d out of range (%d offsets)", p.testIdx, no)
		}
		return p, nil
	case tagGHB:
		p := &GHB{size: r.Int(), head: r.Int(), Depth: r.Int()}
		n, err := r.Len(uint64(r.U32()), "GHB buffer", 1, maxEntries, 24)
		if err != nil {
			return nil, err
		}
		if n != p.size {
			return nil, fmt.Errorf("prefetch: GHB buffer size %d does not match geometry %d", n, p.size)
		}
		// OnAccess indexes buf with head and with every position the index
		// holds, modulo size: neither may be negative, now or a run later.
		if p.head < 0 || p.head > maxGHBHead {
			return nil, fmt.Errorf("prefetch: GHB head %d out of range", p.head)
		}
		p.buf = make([]ghbEntry, n)
		for i := range p.buf {
			p.buf[i] = ghbEntry{addr: r.U64(), prev: r.Int(), id: r.Int()}
		}
		p.index, err = decodeTable(r, "GHB index", p.size, 16, r.Int)
		if err != nil {
			return nil, err
		}
		for _, v := range p.index.vals {
			if v < 0 {
				return nil, fmt.Errorf("prefetch: GHB index holds position %d", v)
			}
		}
		return p, nil
	default:
		return nil, fmt.Errorf("prefetch: unknown prefetcher tag %d", tag)
	}
}
