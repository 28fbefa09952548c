package emu

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"

	"crisp/internal/codec"
)

// A checkpointed memory is stored as a delta over the image its emulator
// started from. Pages are copy-on-write and a frozen page is never written
// again, so a page of the checkpoint that is the very array the image
// holds at that page number has the image's contents: EncodeState leaves
// it out, DecodeMemory returns the pages that were written, and Overlay
// lays those back over the image. The image itself travels out of band —
// the workload builds it — and ImageID is what a stored delta keeps of it
// to refuse the wrong one.

// PageDict deduplicates page storage across the memories of one encoded
// checkpoint set. Checkpoint capture snapshots one emulator copy-on-write
// per window, so a page written once is shared by every later point;
// encoding it per memory would multiply it by the point count. Instead
// each memory encodes (page number, dict index) pairs, the dict stores
// each distinct page array once, and decoding rebuilds the sharing:
// memories that referenced one page array reference one page array again.
type PageDict struct {
	index map[*page]uint32 // encode side: identity -> index
	pages []*page
	used  int // decode side: pages[:used] have been referenced
}

// NewPageDict returns an empty dictionary for encoding.
func NewPageDict() *PageDict {
	return &PageDict{index: make(map[*page]uint32)}
}

// Len returns the number of distinct pages collected so far.
func (d *PageDict) Len() int { return len(d.pages) }

// EncodeState writes the pages of m that image does not hold — page count,
// then (page number, dict index) pairs sorted by page number — interning
// their contents into d. A page is left out only when it is
// pointer-identical to image's page at the same number; a nil image leaves
// nothing out. m must descend from image (a fork of it, or an Overlay on
// it): a page image holds and m lacks cannot be expressed. The caller
// emits d's pages (EncodePages) ahead of the page tables in the final
// stream so decoding is single-pass.
func (m *Memory) EncodeState(w *codec.Writer, d *PageDict, image *Memory) {
	// A clean fork of a clean image shares its frozen table and lists
	// nothing, whatever the page count: a read-only workload's every point.
	if image != nil && m.base == image.base && len(m.own) == 0 && len(image.own) == 0 {
		w.U64(0)
		return
	}
	pages := m.table()
	var held map[uint64]*page
	if image != nil {
		held = image.table()
	}
	var pns []uint64
	for pn, p := range pages {
		if held[pn] != p {
			pns = append(pns, pn)
		}
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

// Unreferenced returns how many of a decoded dict's pages no DecodeMemory
// call has referenced yet. An encoder interns a page only when a table
// references it, so a decoder that has read every table refuses a stream
// that leaves any.
func (d *PageDict) Unreferenced() int { return len(d.pages) - d.used }

// DecodeMemory reads one page table written by EncodeState, resolving dict
// indices through d so memories that shared a page on the encode side
// share it again, and returns a memory holding exactly those pages: the
// whole memory when it was encoded over a nil image, else what Overlay
// lays over that image. Page numbers must ascend strictly and dict indices
// must appear in first-use order, as EncodeState writes them: a repeated
// page number would let the later entry win silently, and either would
// re-encode to other bytes. The page table becomes the memory's frozen
// base, making the result behave like a fresh Snapshot: pristine until
// written, and safe for concurrent Snapshot calls.
func DecodeMemory(r *codec.Reader, d *PageDict) (*Memory, error) {
	n := r.U64()
	const entrySize = 12 // u64 page number + u32 dict index
	if max := uint64(r.Remaining() / entrySize); n > max {
		return nil, fmt.Errorf("emu: page table claims %d entries, only %d encoded", n, max)
	}
	pages := make(map[uint64]*page, n)
	var last uint64
	for i := uint64(0); i < n; i++ {
		pn := r.U64()
		idx := r.U32()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if i > 0 && pn <= last {
			return nil, fmt.Errorf("emu: page table entry %d: page %#x does not follow %#x", i, pn, last)
		}
		// EncodeState numbers pages in the order it first meets them.
		if int(idx) >= len(d.pages) || int(idx) > d.used {
			return nil, fmt.Errorf("emu: page dict index %d out of range (%d pages, %d referenced so far)", idx, len(d.pages), d.used)
		}
		if int(idx) == d.used {
			d.used++
		}
		pages[pn], last = d.pages[idx], pn
	}
	return &Memory{base: &frozen{pages: pages}}, nil
}

// Overlay returns a clean memory reading as image with private's pages
// laid over it, the inverse of encoding a memory over image. When private
// holds no page the result shares image's frozen table and costs one
// allocation whatever the page count; otherwise it costs one table of
// image's size, and no page is copied either way. image is forked as by
// Snapshot; private must be clean (a DecodeMemory result is).
func Overlay(image, private *Memory) *Memory {
	m := image.Snapshot()
	if over := private.table(); len(over) != 0 {
		under := m.base.table()
		t := make(map[uint64]*page, len(under)+len(over))
		maps.Copy(t, under)
		maps.Copy(t, over)
		m.base = &frozen{pages: t}
	}
	return m
}

// ImageID names a memory image by content: its resident page count and a
// CRC-32 over every (page number, page bytes) in page-number order.
type ImageID struct {
	Pages uint64
	Sum   uint32
}

// ID returns m's ImageID. Computing one reads every resident page, at
// memory bandwidth: 16 ms for bwaves's 67 MB. A clean memory keeps the
// result on its frozen page table, which every fork of it shares, so each
// image a workload memoises is summed once per process however many sets
// are encoded over it or attached to it; concurrent calls are safe.
func (m *Memory) ID() ImageID {
	if len(m.own) != 0 || m.base == nil {
		return sumPages(m.table())
	}
	m.base.idOnce.Do(func() { m.base.id = sumPages(m.base.pages) })
	return m.base.id
}

func sumPages(pages map[uint64]*page) ImageID {
	pns := make([]uint64, 0, len(pages))
	for pn := range pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	id := ImageID{Pages: uint64(len(pns))}
	var num [8]byte
	for _, pn := range pns {
		binary.LittleEndian.PutUint64(num[:], pn)
		id.Sum = crc32.Update(id.Sum, crc32.IEEETable, num[:])
		id.Sum = crc32.Update(id.Sum, crc32.IEEETable, pages[pn][:])
	}
	return id
}
