package prefetch

import (
	"fmt"
	"sort"

	"crisp/internal/codec"
)

// This file serializes warmed prefetcher training state for the
// persistent checkpoint store. A prefetcher is written as its training
// state alone: its kind is the reader's to know (a checkpoint variant's
// name lists its cores' kinds), and its shape is what New builds for that
// kind. A table's entries are written from least to most recently used,
// so one state has one encoding — the store's round-trip and determinism
// tests rely on that — and decodes to the same LRU order.

// maxGHBHead bounds a decoded miss count, which OnAccess increments and
// indexes by.
const maxGHBHead = 1 << 48

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
// the empty table t. It refuses more entries than t's capacity and a key
// twice (get finds only the first).
func decodeTable[V any](r *codec.Reader, what string, t *table[V], entrySize int, val func() V) error {
	n, err := r.Len(uint64(r.U32()), what, 0, t.cap, entrySize)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		k := r.U64()
		if t.get(k) != nil {
			return fmt.Errorf("prefetch: %s repeats key %#x", what, k)
		}
		t.put(k, val())
	}
	return r.Err()
}

// Encode writes p's training state (nil allowed: the no-prefetcher
// configuration, which has none).
func Encode(w *codec.Writer, p Prefetcher) {
	switch p := p.(type) {
	case nil:
	case *Stride:
		encodeTable(w, &p.table, func(e *strideEntry) { w.U64(e.lastAddr); w.I64(e.stride); w.I8(e.conf) })
	case *Stream:
		encodeTable(w, &p.regions, func(e *streamEntry) { w.I64(e.lastLine); w.I64(e.dir); w.I8(e.count) })
	case *BOP:
		for _, v := range p.rr {
			w.U64(v)
		}
		for _, s := range p.scores {
			w.Int(s)
		}
		w.Int(p.testIdx)
		w.Int(p.round)
		w.I64(p.active)
	case *GHB:
		w.Int(p.head)
		for _, e := range p.buf {
			w.U64(e.addr)
			w.Int(e.prev)
			w.Int(e.id)
		}
		encodeTable(w, &p.index, func(v *int) { w.Int(*v) })
	case *BOPStream:
		Encode(w, p.BOP)
		Encode(w, p.Stream)
	default:
		panic("prefetch: Encode: unknown prefetcher type")
	}
}

// Decode reads the training state Encode wrote of a prefetcher of the
// given kind into what New builds for it.
func Decode(r *codec.Reader, kind string) (Prefetcher, error) {
	p, err := New(kind)
	if err != nil {
		return nil, err
	}
	if err := decodeState(r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// decodeState fills the fresh prefetcher p with what Encode wrote of it.
func decodeState(r *codec.Reader, p Prefetcher) error {
	switch p := p.(type) {
	case nil:
		return nil
	case *Stride:
		return decodeTable(r, "stride table", &p.table, 25, func() strideEntry {
			return strideEntry{lastAddr: r.U64(), stride: r.I64(), conf: r.I8()}
		})
	case *Stream:
		return decodeTable(r, "stream table", &p.regions, 25, func() streamEntry {
			return streamEntry{lastLine: r.I64(), dir: r.I64(), count: r.I8()}
		})
	case *BOP:
		for i := range p.rr {
			p.rr[i] = r.U64()
		}
		for i := range p.scores {
			p.scores[i] = r.Int()
		}
		p.testIdx = r.Int()
		p.round = r.Int()
		p.active = r.I64()
		if err := r.Err(); err != nil {
			return err
		}
		if p.testIdx < 0 || p.testIdx >= len(bopOffsets) {
			return fmt.Errorf("prefetch: BOP test index %d out of range (%d offsets)", p.testIdx, len(bopOffsets))
		}
		return nil
	case *GHB:
		// OnAccess indexes buf with head and with every position the index
		// holds, modulo its length: neither may be negative, now or a run
		// later.
		if p.head = r.Int(); p.head < 0 || p.head > maxGHBHead {
			return fmt.Errorf("prefetch: GHB head %d out of range", p.head)
		}
		for i := range p.buf {
			p.buf[i] = ghbEntry{addr: r.U64(), prev: r.Int(), id: r.Int()}
		}
		if err := decodeTable(r, "GHB index", &p.index, 16, r.Int); err != nil {
			return err
		}
		for _, v := range p.index.vals {
			if v < 0 {
				return fmt.Errorf("prefetch: GHB index holds position %d", v)
			}
		}
		return nil
	case *BOPStream:
		if err := decodeState(r, p.BOP); err != nil {
			return err
		}
		return decodeState(r, p.Stream)
	}
	panic("prefetch: Decode: unknown prefetcher type")
}
