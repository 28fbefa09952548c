package emu

import (
	"fmt"
	"slices"

	"crisp/internal/codec"
)

// PageDict deduplicates page storage across the memories of one encoded
// checkpoint set. Checkpoint capture snapshots one emulator copy-on-write
// per window, so consecutive points share almost every page by pointer;
// encoding each memory's pages verbatim would multiply the image size by
// the point count. Instead each memory encodes (page number, dict index)
// pairs, the dict stores each distinct page array once, and decoding
// rebuilds the sharing: memories that referenced one page array reference
// one page array again.
type PageDict struct {
	index map[*page]uint32 // encode side: identity -> index
	pages []*page
}

// NewPageDict returns an empty dictionary for encoding.
func NewPageDict() *PageDict {
	return &PageDict{index: make(map[*page]uint32)}
}

// Len returns the number of distinct pages collected so far.
func (d *PageDict) Len() int { return len(d.pages) }

// EncodeState writes m's page table — page count, then (page number,
// dict index) pairs sorted by page number — interning page contents into
// d. The caller emits d's pages (EncodePages) ahead of the page tables in
// the final stream so decoding is single-pass.
func (m *Memory) EncodeState(w *codec.Writer, d *PageDict) {
	pages := m.table()
	pns := make([]uint64, 0, len(pages))
	for pn := range pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	w.U64(uint64(len(pns)))
	for _, pn := range pns {
		p := pages[pn]
		idx, ok := d.index[p]
		if !ok {
			idx = uint32(len(d.pages))
			d.index[p] = idx
			d.pages = append(d.pages, p)
		}
		w.U64(pn)
		w.U32(idx)
	}
}

// EncodedLen returns the number of bytes EncodePages writes.
func (d *PageDict) EncodedLen() int { return 4 + len(d.pages)*pageSize }

// EncodePages emits the interned page contents: count, then raw pages in
// index order.
func (d *PageDict) EncodePages(w *codec.Writer) {
	w.U32(uint32(len(d.pages)))
	for _, p := range d.pages {
		w.Raw(p[:])
	}
}

// DecodePageDict reads the page contents emitted by EncodePages.
func DecodePageDict(r *codec.Reader) (*PageDict, error) {
	n := int(r.U32())
	d := &PageDict{}
	for i := 0; i < n; i++ {
		b := r.Raw(pageSize)
		if r.Err() != nil {
			return nil, r.Err()
		}
		p := new([pageSize]byte)
		copy(p[:], b)
		d.pages = append(d.pages, p)
	}
	return d, nil
}

// DecodeMemory reconstructs one memory from its page table, resolving
// dict indices through d so memories that shared a page on the encode
// side share it again. The page table becomes the memory's frozen base,
// making the result behave like a fresh Snapshot: pristine until written,
// and safe for concurrent Snapshot calls (restore's per-window fork).
func DecodeMemory(r *codec.Reader, d *PageDict) (*Memory, error) {
	n := r.U64()
	const entrySize = 12 // u64 page number + u32 dict index
	if max := uint64(r.Remaining() / entrySize); n > max {
		return nil, fmt.Errorf("emu: page table claims %d entries, only %d encoded", n, max)
	}
	m := &Memory{base: make(map[uint64]*page, n)}
	for i := uint64(0); i < n; i++ {
		pn := r.U64()
		idx := r.U32()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if int(idx) >= len(d.pages) {
			return nil, fmt.Errorf("emu: page dict index %d out of range (%d pages)", idx, len(d.pages))
		}
		m.base[pn] = d.pages[idx]
	}
	return m, nil
}
