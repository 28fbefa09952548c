package emu

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"crisp/internal/codec"
)

// refEncodeMemory is Memory.EncodeState as it stood in codec version 1,
// verbatim: the whole page table, every page interned. It is the reference
// for what a memory's state is — two memories with the same bytes here
// (against one dict) hold the same pages with the same sharing — and what
// EncodeState over a nil image must still write. It reads the page
// table as the flat map it was then (flatTable).
func refEncodeMemory(m *Memory, w *codec.Writer, d *PageDict) {
	pages := flatTable(m)
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

// flatTable returns m's page table keyed by page number.
func flatTable(m *Memory) map[uint64]*page {
	pages := map[uint64]*page{}
	t := m.table()
	for _, gn := range t.gns {
		for i, p := range t.groups[gn].pages {
			if p != nil {
				pages[gn<<groupShift|uint64(i)] = p
			}
		}
	}
	return pages
}

// TestPageDictSharing: memories forked copy-on-write must intern their
// shared pages once, and decoding must rebuild both the contents and
// the copy-on-write discipline.
func TestPageDictSharing(t *testing.T) {
	m := NewMemory()
	for pg := uint64(0); pg < 8; pg++ {
		m.WriteWord(pg*pageSize, int64(pg)+100)
	}
	snap1 := m.Snapshot()
	m.WriteWord(0, 999) // copies page 0 in m; snap1 keeps the original
	snap2 := m.Snapshot()

	var pw codec.Writer
	dict := NewPageDict()
	snap1.EncodeState(&pw, dict, nil)
	snap2.EncodeState(&pw, dict, nil)
	// 8 pages each, 7 shared: 9 distinct arrays.
	if dict.Len() != 9 {
		t.Fatalf("dict holds %d pages, want 9 (7 shared + 2 versions of page 0)", dict.Len())
	}
	var ref codec.Writer
	refDict := NewPageDict()
	refEncodeMemory(snap1, &ref, refDict)
	refEncodeMemory(snap2, &ref, refDict)
	if !bytes.Equal(pw.Bytes(), ref.Bytes()) {
		t.Fatalf("encoding over a nil image differs from the version-1 encoder")
	}

	var w codec.Writer
	dict.EncodePages(&w)
	w.Raw(pw.Bytes())

	r := codec.NewReader(w.Bytes())
	dec, err := DecodePageDict(r)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := DecodeMemory(r, dec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeMemory(r, dec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", r.Remaining())
	}
	if got := d1.ReadWord(0); got != 100 {
		t.Errorf("snap1 page 0 = %d, want the pre-write 100", got)
	}
	if got := d2.ReadWord(0); got != 999 {
		t.Errorf("snap2 page 0 = %d, want the post-write 999", got)
	}
	for pg := uint64(1); pg < 8; pg++ {
		if d1.ReadWord(pg*pageSize) != d2.ReadWord(pg*pageSize) {
			t.Errorf("page %d differs between decoded memories", pg)
		}
	}

	// Decoded memories are copy-on-write: writing one must not leak into
	// the other's shared page.
	d1.WriteWord(pageSize, -1)
	if got := d2.ReadWord(pageSize); got != 101 {
		t.Errorf("write to decoded snap1 leaked into snap2: page 1 = %d", got)
	}

	// A decoded memory that has not been written is clean, so Snapshot
	// does not mutate it (restore relies on this for concurrency) and the
	// fork reads identically.
	fork := d2.Snapshot()
	if got := fork.ReadWord(0); got != 999 {
		t.Errorf("fork of decoded memory reads %d, want 999", got)
	}
}

// TestDeltaOverImage: a memory encoded over the image it descends from
// lists only the pages it wrote, whatever the image holds, and laying the
// decoded pages back over the image gives the memory back — the same
// pages, shared the same way, by the version-1 encoder's account.
func TestDeltaOverImage(t *testing.T) {
	base := NewMemory()
	for pg := uint64(0); pg < 64; pg++ {
		base.WriteWord(pg*pageSize, int64(pg)+100)
	}
	image := base.Snapshot()
	run := image.Snapshot() // the emulator's memory
	clean := run.Snapshot()
	run.WriteWord(3*pageSize+8, -3)  // copies an image page
	run.WriteWord(200*pageSize, 200) // a page the image never had
	mid := run.Snapshot()
	run.WriteWord(3*pageSize+16, -4) // same page again: a second private copy
	last := run.Snapshot()
	points := []*Memory{clean, mid, last}

	var pw, w codec.Writer
	dict := NewPageDict()
	for _, m := range points {
		m.EncodeState(&pw, dict, image)
	}
	// clean lists nothing; mid and last list pages 3 and 200; page 200 is
	// one array in both, page 3 is not.
	if dict.Len() != 3 {
		t.Fatalf("dict holds %d pages, want 3", dict.Len())
	}
	if want := 3*8 + 4*12; pw.Len() != want {
		t.Fatalf("page tables take %d bytes, want %d", pw.Len(), want)
	}
	dict.EncodePages(&w)
	w.Raw(pw.Bytes())

	r := codec.NewReader(w.Bytes())
	dec, err := DecodePageDict(r)
	if err != nil {
		t.Fatal(err)
	}
	var got, want codec.Writer
	gotDict, wantDict := NewPageDict(), NewPageDict()
	for i, m := range points {
		private, err := DecodeMemory(r, dec)
		if err != nil {
			t.Fatal(err)
		}
		if n := []int{0, 2, 2}[i]; private.Pages() != n {
			t.Errorf("point %d decodes to %d pages, want %d", i, private.Pages(), n)
		}
		refEncodeMemory(Overlay(image, private), &got, gotDict)
		refEncodeMemory(m, &want, wantDict)
	}
	if r.Remaining() != 0 || dec.Unreferenced() != 0 {
		t.Fatalf("%d trailing bytes, %d unreferenced dict pages", r.Remaining(), dec.Unreferenced())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("overlaying the decoded pages on the image does not give the memories back")
	}
	var gotPages, wantPages codec.Writer
	gotDict.EncodePages(&gotPages)
	wantDict.EncodePages(&wantPages)
	if !bytes.Equal(gotPages.Bytes(), wantPages.Bytes()) {
		t.Errorf("overlaid memories hold different page contents")
	}

	// The overlay is a clean fork: writing it reaches neither the image
	// nor a sibling.
	r = codec.NewReader(w.Bytes())
	dec, _ = DecodePageDict(r)
	DecodeMemory(r, dec)
	private, _ := DecodeMemory(r, dec)
	a, b := Overlay(image, private), Overlay(image, private)
	a.WriteWord(5*pageSize, -5)
	a.WriteWord(200*pageSize, -200)
	if image.ReadWord(5*pageSize) != 105 || b.ReadWord(5*pageSize) != 105 || b.ReadWord(200*pageSize) != 200 {
		t.Errorf("a write to one overlay leaked into the image or its sibling")
	}
}

// TestOverlayCleanIsConstantAllocs: laying no page over an image shares
// the image's page table, so attaching a read-only workload's checkpoint
// costs one header a point however large the image is.
func TestOverlayCleanIsConstantAllocs(t *testing.T) {
	none := &Memory{}
	for _, pages := range []uint64{1, 4096} {
		m := NewMemory()
		for pn := uint64(0); pn < pages; pn++ {
			m.WriteWord(pn*pageSize, int64(pn))
		}
		image := m.Snapshot()
		if n := testing.AllocsPerRun(100, func() { Overlay(image, none) }); n > 1 {
			t.Errorf("Overlay of nothing on a %d-page image: %v allocs, want 1", pages, n)
		}
	}
}

// TestImageID: the ID moves with any byte, any page's position and the
// page count, and not with how the memory came to hold its pages.
func TestImageID(t *testing.T) {
	build := func(edit func(m *Memory)) ImageID {
		m := NewMemory()
		for pg := uint64(0); pg < 16; pg++ {
			m.WriteWord(pg*pageSize, int64(pg)+1)
		}
		if edit != nil {
			m = m.Snapshot()
			edit(m)
		}
		return m.ID()
	}
	want := build(nil)
	if want.Pages != 16 {
		t.Fatalf("ID counts %d pages, want 16", want.Pages)
	}
	if got := build(func(m *Memory) { m.WriteWord(0, 1) }); got != want {
		t.Errorf("rewriting a word with its own value through a fork changed the ID: %+v vs %+v", got, want)
	}
	for name, edit := range map[string]func(m *Memory){
		"one bit":         func(m *Memory) { m.WriteWord(7*pageSize+4088, 1<<62) },
		"a new zero page": func(m *Memory) { m.WriteWord(16*pageSize, 0) },
	} {
		if got := build(edit); got == want {
			t.Errorf("%s: ID unchanged", name)
		}
	}
	moved := NewMemory()
	for pg := uint64(0); pg < 16; pg++ {
		moved.WriteWord((pg+1)*pageSize, int64(pg)+1)
	}
	if got := moved.ID(); got.Sum == want.Sum {
		t.Errorf("the same pages one page number up have the same checksum")
	}
	if got := NewMemory().ID(); got != (ImageID{}) {
		t.Errorf("empty memory has ID %+v, want zero", got)
	}

	// A clean image is summed once, on the page table its forks share: a
	// fork's ID is the image's, at no cost; a written fork is summed anew.
	image := moved.Snapshot()
	image.ID()
	fork := image.Snapshot()
	if n := testing.AllocsPerRun(10, func() { fork.ID() }); n != 0 || fork.ID() != moved.ID() {
		t.Errorf("ID of a clean fork: %v allocs, %+v; want the image's %+v for free", n, fork.ID(), moved.ID())
	}
	fork.WriteWord(pageSize, -1)
	if fork.ID() == image.ID() || image.ID() != moved.ID() {
		t.Errorf("a write to a fork did not move its ID, or moved the image's")
	}
}

// TestDecodeMemoryCorrupt: a page table EncodeState cannot have written —
// an out-of-range or out-of-order dict index, a repeated or descending page
// number, more entries than bytes — must error, not panic, allocate wildly
// or let a later entry win.
func TestDecodeMemoryCorrupt(t *testing.T) {
	dict := func() *PageDict { return &PageDict{pages: []*page{new(page), new(page)}} }
	table := func(entries ...uint64) []byte { // pn, idx, pn, idx, ...
		var w codec.Writer
		w.U64(uint64(len(entries) / 2))
		for i := 0; i < len(entries); i += 2 {
			w.U64(entries[i])
			w.U32(uint32(entries[i+1]))
		}
		return w.Bytes()
	}
	if m, err := DecodeMemory(codec.NewReader(table(1, 0, 2, 1, 9, 0)), dict()); err != nil || m.Pages() != 3 {
		t.Fatalf("well-formed table: %v", err)
	}
	for _, c := range []struct {
		name, want string
		in         []byte
	}{
		{"repeated page number", "does not follow", table(1, 0, 1, 1)},
		{"descending page numbers", "does not follow", table(2, 0, 1, 1)},
		{"dict index out of range", "out of range", table(1, 0, 2, 1, 3, 2)},
		{"dict index ahead of first use", "out of range", table(1, 1)},
		{"more entries than bytes", "claims 2 entries", table(1, 0, 2, 1)[:25]},
	} {
		_, err := DecodeMemory(codec.NewReader(c.in), dict())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}

	var pw codec.Writer
	d := NewPageDict()
	m := NewMemory()
	m.WriteWord(0, 7)
	m.Snapshot().EncodeState(&pw, d, nil)

	var w codec.Writer
	d.EncodePages(&w)
	w.Raw(pw.Bytes())
	enc := append([]byte(nil), w.Bytes()...)

	// Corrupt the dict index of the only page-table entry (last 4 bytes).
	enc[len(enc)-1] = 0xFF
	r := codec.NewReader(enc)
	dec, err := DecodePageDict(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMemory(r, dec); err == nil {
		t.Error("out-of-range dict index decoded without error")
	}

	// A page count far beyond the buffer must fail fast.
	var w2 codec.Writer
	w2.U64(1 << 40)
	if _, err := DecodeMemory(codec.NewReader(w2.Bytes()), dec); err == nil {
		t.Error("oversized page table decoded without error")
	}
}

// TestImageSharedAcrossGoroutines: runners attach sets to forks of one
// pristine image at once. Summing it, forking it and laying pages over it
// from several goroutines must agree and must not race (run with -race).
func TestImageSharedAcrossGoroutines(t *testing.T) {
	m := NewMemory()
	for pg := uint64(0); pg < 64; pg++ {
		m.WriteWord(pg*pageSize, int64(pg)+1)
	}
	image := m.Snapshot()
	edit := image.Snapshot()
	edit.WriteWord(3*pageSize, -1)
	var pw codec.Writer
	dict := NewPageDict()
	edit.Snapshot().EncodeState(&pw, dict, image)
	private, err := DecodeMemory(codec.NewReader(pw.Bytes()), &PageDict{pages: dict.pages})
	if err != nil {
		t.Fatal(err)
	}
	want := sumPages(image.table())

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fork := image.Snapshot()
			if got := fork.ID(); got != want {
				t.Errorf("fork's ID %+v, want %+v", got, want)
			}
			over := Overlay(image, private)
			if over.ReadWord(3*pageSize) != -1 || over.ReadWord(4*pageSize) != 5 {
				t.Errorf("overlay reads %d, %d; want -1, 5", over.ReadWord(3*pageSize), over.ReadWord(4*pageSize))
			}
			over.WriteWord(4*pageSize, 0) // private to this goroutine's overlay
		}()
	}
	wg.Wait()
	if image.ReadWord(4*pageSize) != 5 || image.ID() != want {
		t.Errorf("the shared image changed")
	}
}
