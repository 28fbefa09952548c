package prefetch

import (
	"fmt"
	"sort"

	"crisp/internal/codec"
)

// This file serializes warmed prefetcher training state for the
// persistent checkpoint store. Encoding is type-tagged (mirroring
// Clone's type switch) and map-backed tables are written in sorted key
// order, so encoding the same state twice produces identical bytes —
// the store's round-trip and determinism tests rely on that.

// Type tags in the encoded form. Order is part of the format; new kinds
// append.
const (
	tagNil = iota
	tagNextLine
	tagStride
	tagStream
	tagBOP
	tagGHB
	tagComposite
)

// maxEntries bounds decoded table sizes. tableLen also checks a length
// prefix against the bytes left, so a corrupt prefix cannot drive an
// allocation larger than its input.
const maxEntries = 1 << 24

// tableLen reads a u32 entry count and refuses one below min, above
// maxEntries, or that entrySize bytes per entry would overrun the input.
func tableLen(r *codec.Reader, what string, min, entrySize int) (int, error) {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return 0, err
	}
	if n < min || n > maxEntries || n > r.Remaining()/entrySize {
		return 0, fmt.Errorf("prefetch: %s size %d out of range (%d bytes encoded)", what, n, r.Remaining())
	}
	return n, nil
}

// ascending reports a map-backed table's key that does not follow the
// previous one. Encode writes keys sorted, so anything else — a repeated
// key would silently overwrite its entry — is not an encoding.
func ascending(what string, i int, prev, k uint64) error {
	if i > 0 && k <= prev {
		return fmt.Errorf("prefetch: %s key %#x does not follow %#x", what, k, prev)
	}
	return nil
}

// Encode serializes p (nil allowed: the no-prefetcher configuration).
func Encode(w *codec.Writer, p Prefetcher) {
	switch p := p.(type) {
	case nil:
		w.U8(tagNil)
	case *NextLine:
		w.U8(tagNextLine)
		w.Int(p.Degree)
	case *Stride:
		w.U8(tagStride)
		w.Int(p.cap)
		w.Int(p.Distance)
		keys := make([]uint64, 0, len(p.table))
		for k := range p.table {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			e := p.table[k]
			w.U64(k)
			w.U64(e.lastAddr)
			w.I64(e.stride)
			w.I8(e.conf)
		}
	case *Stream:
		w.U8(tagStream)
		w.Int(p.cap)
		w.Int(p.Degree)
		keys := make([]uint64, 0, len(p.regions))
		for k := range p.regions {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			e := p.regions[k]
			w.U64(k)
			w.I64(e.lastLine)
			w.I64(e.dir)
			w.I8(e.count)
		}
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
		keys := make([]uint64, 0, len(p.index))
		for k := range p.index {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			w.U64(k)
			w.Int(p.index[k])
		}
	case *Composite:
		w.U8(tagComposite)
		w.U32(uint32(len(p.Parts)))
		for _, part := range p.Parts {
			Encode(w, part)
		}
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
	switch tag {
	case tagNil:
		return nil, nil
	case tagNextLine:
		return &NextLine{Degree: r.Int()}, r.Err()
	case tagStride:
		p := &Stride{cap: r.Int(), Distance: r.Int()}
		n, err := tableLen(r, "stride table", 0, 25)
		if err != nil {
			return nil, err
		}
		p.table = make(map[uint64]*strideEntry, n)
		for i, prev := 0, uint64(0); i < n; i++ {
			k := r.U64()
			if err := ascending("stride table", i, prev, k); err != nil {
				return nil, err
			}
			p.table[k], prev = &strideEntry{lastAddr: r.U64(), stride: r.I64(), conf: r.I8()}, k
		}
		return p, r.Err()
	case tagStream:
		p := &Stream{cap: r.Int(), Degree: r.Int()}
		n, err := tableLen(r, "stream table", 0, 25)
		if err != nil {
			return nil, err
		}
		p.regions = make(map[uint64]*streamEntry, n)
		for i, prev := 0, uint64(0); i < n; i++ {
			k := r.U64()
			if err := ascending("stream table", i, prev, k); err != nil {
				return nil, err
			}
			p.regions[k], prev = &streamEntry{lastLine: r.I64(), dir: r.I64(), count: r.I8()}, k
		}
		return p, r.Err()
	case tagBOP:
		p := &BOP{}
		n, err := tableLen(r, "BOP rr table", 1, 8)
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
		no, err := tableLen(r, "BOP offset list", 1, 16)
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
		n, err := tableLen(r, "GHB buffer", 1, 24)
		if err != nil {
			return nil, err
		}
		if n != p.size {
			return nil, fmt.Errorf("prefetch: GHB buffer size %d does not match geometry %d", n, p.size)
		}
		if p.head < 0 {
			return nil, fmt.Errorf("prefetch: GHB head %d out of range", p.head)
		}
		p.buf = make([]ghbEntry, n)
		for i := range p.buf {
			p.buf[i] = ghbEntry{addr: r.U64(), prev: r.Int(), id: r.Int()}
		}
		ni, err := tableLen(r, "GHB index", 0, 16)
		if err != nil {
			return nil, err
		}
		p.index = make(map[uint64]int, ni)
		for i, prev := 0, uint64(0); i < ni; i++ {
			k := r.U64()
			if err := ascending("GHB index", i, prev, k); err != nil {
				return nil, err
			}
			p.index[k], prev = r.Int(), k
		}
		return p, r.Err()
	case tagComposite:
		n := int(r.U32())
		if n < 0 || n > 64 {
			return nil, fmt.Errorf("prefetch: composite part count %d out of range", n)
		}
		// Parts grows as parts decode, not to the declared count: composites
		// nest, and each level of a hostile input would reserve a kilobyte
		// for five bytes.
		c := &Composite{}
		for i := 0; i < n; i++ {
			part, err := Decode(r)
			if err != nil {
				return nil, err
			}
			if part == nil {
				return nil, fmt.Errorf("prefetch: nil part inside composite")
			}
			c.Parts = append(c.Parts, part)
		}
		return c, r.Err()
	default:
		return nil, fmt.Errorf("prefetch: unknown prefetcher tag %d", tag)
	}
}
