package emu

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

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
	t := m.table()
	held := noPages
	if image != nil {
		held = image.table()
	}
	var pns []uint64
	for _, gn := range t.gns {
		h := held.groups[gn]
		for i, p := range t.groups[gn].pages {
			if p != nil && (h == nil || h.pages[i] != p) {
				pns = append(pns, gn<<groupShift|uint64(i))
			}
		}
	}
	w.U64(uint64(len(pns)))
	for _, pn := range pns {
		p := t.groups[pn>>groupShift].pages[pn&groupMask]
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
	m := &Memory{}
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
		m.ownGroup(pn >> groupShift).pages[pn&groupMask], last = d.pages[idx], pn
	}
	return m.Snapshot(), nil
}

// Overlay returns a clean memory reading as image with private's pages
// laid over it, the inverse of encoding a memory over image. When private
// holds no page the result shares image's frozen table and costs one
// allocation whatever the page count; otherwise it costs one table of
// image's size in groups, and no page is copied either way. image is
// forked as by Snapshot; private must be clean (a DecodeMemory result is).
func Overlay(image, private *Memory) *Memory {
	m, over := image.Snapshot(), private.table()
	for _, gn := range over.gns {
		g := m.ownGroup(gn)
		for i, p := range over.groups[gn].pages {
			if p != nil {
				g.pages[i] = p
			}
		}
	}
	m.base, m.own, m.grew = m.table(), nil, nil // a fresh fork: no translation yet
	return m
}

// ImageID names a memory image by content: its resident page count and a
// CRC-32 over every (page number, page bytes) in page-number order.
type ImageID struct {
	Pages uint64
	Sum   uint32
}

// ID returns m's ImageID, reading every resident page at memory bandwidth
// (1.6 ms for bwaves's 17 MB, 2.1 GHz Xeon). A clean memory keeps the
// result on its frozen page table, which every fork of it shares, so each
// image a workload memoises is summed once per process however many sets
// are encoded over it or attached to it; concurrent calls are safe.
func (m *Memory) ID() ImageID {
	if len(m.own) != 0 || m.base == nil {
		return sumPages(m.table())
	}
	m.base.idOnce.Do(func() { m.base.id = sumPages(m.base) })
	return m.base.id
}

func sumPages(t *frozen) ImageID {
	var id ImageID
	var num [8]byte
	for _, gn := range t.gns {
		for i, p := range t.groups[gn].pages {
			if p != nil {
				id.Pages++
				binary.LittleEndian.PutUint64(num[:], gn<<groupShift|uint64(i))
				id.Sum = crc32.Update(id.Sum, crc32.IEEETable, num[:])
				id.Sum = crc32.Update(id.Sum, crc32.IEEETable, p[:])
			}
		}
	}
	return id
}
