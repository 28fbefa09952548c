package branch

import (
	"fmt"

	"crisp/internal/codec"
)

// This file serializes the warmed frontend structures for the persistent
// checkpoint store. Encoders write geometry alongside contents, so a
// decoded structure is byte-for-byte the warmed original — including
// history registers, usefulness clocks and the allocation RNG, which all
// influence later predictions. Decoders validate geometry against sane
// bounds and never panic on corrupt input: the store treats a decode
// error as a miss and recaptures.

// EncodeState serializes the predictor's full training state.
func (t *TAGE) EncodeState(w *codec.Writer) {
	w.U32(uint32(len(t.base)))
	for _, c := range t.base {
		w.I8(c)
	}
	w.U64(t.baseSz)
	w.U32(uint32(len(t.tables)))
	for i := range t.tables {
		tbl := &t.tables[i]
		w.U32(uint32(len(tbl.entries)))
		for _, e := range tbl.entries {
			w.U16(e.tag)
			w.I8(e.ctr)
			w.U8(e.u)
		}
		w.U64(tbl.mask)
		w.Int(tbl.histLen)
		w.Uint(tbl.tagBits)
		for _, f := range []folded{tbl.idxFold, tbl.tagFold1, tbl.tagFold2} {
			w.U64(f.comp)
			w.Uint(f.compLen)
			w.Int(f.origLen)
		}
	}
	w.Blob(t.hist)
	w.Int(t.histPos)
	w.I8(t.useAltOnNA)
	w.U64(t.tick)
	w.U64(t.rng)
	w.U64(t.mispred)
	w.U64(t.total)
}

// maxTableLen bounds decoded table sizes. Every decoder also checks a
// length prefix against the bytes left before it allocates, so a corrupt
// prefix cannot drive an allocation larger than its input.
const maxTableLen = 1 << 24

// DecodeTAGE reconstructs a predictor encoded by EncodeState.
func DecodeTAGE(r *codec.Reader) (*TAGE, error) {
	nb := int(r.U32())
	if nb <= 0 || nb > maxTableLen || nb > r.Remaining() {
		return nil, fmt.Errorf("branch: TAGE base size %d out of range (%d bytes encoded)", nb, r.Remaining())
	}
	t := &TAGE{base: make([]int8, nb)}
	for i := range t.base {
		t.base[i] = r.I8()
	}
	t.baseSz = r.U64()
	if t.baseSz != uint64(nb-1) {
		return nil, fmt.Errorf("branch: TAGE base mask %d does not match %d entries", t.baseSz, nb)
	}
	nt := int(r.U32())
	if nt < 0 || nt > 64 {
		return nil, fmt.Errorf("branch: TAGE table count %d out of range", nt)
	}
	for i := 0; i < nt; i++ {
		var tbl tageTable
		ne := int(r.U32())
		if ne <= 0 || ne > maxTableLen || ne > r.Remaining()/4 {
			return nil, fmt.Errorf("branch: TAGE component size %d out of range (%d bytes encoded)", ne, r.Remaining())
		}
		tbl.entries = make([]tageEntry, ne)
		for j := range tbl.entries {
			tbl.entries[j] = tageEntry{tag: r.U16(), ctr: r.I8(), u: r.U8()}
		}
		tbl.mask = r.U64()
		if tbl.mask != uint64(ne-1) {
			return nil, fmt.Errorf("branch: TAGE component mask %d does not match %d entries", tbl.mask, ne)
		}
		tbl.histLen = r.Int()
		tbl.tagBits = r.Uint()
		for _, f := range []*folded{&tbl.idxFold, &tbl.tagFold1, &tbl.tagFold2} {
			comp, compLen, origLen := r.U64(), r.Uint(), r.Int()
			if compLen == 0 || compLen > 64 {
				return nil, fmt.Errorf("branch: TAGE folded compLen %d out of range", compLen)
			}
			*f = newFolded(comp, compLen, origLen)
		}
		t.tables = append(t.tables, tbl)
	}
	t.hist = append([]uint8(nil), r.Blob()...)
	t.histPos = r.Int()
	t.useAltOnNA = r.I8()
	t.tick = r.U64()
	t.rng = r.U64()
	t.mispred = r.U64()
	t.total = r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(t.hist) == 0 || t.histPos < 0 || t.histPos >= len(t.hist) {
		return nil, fmt.Errorf("branch: TAGE history position %d out of range (%d entries)", t.histPos, len(t.hist))
	}
	for i := range t.tables { // what pushHistory's wrap-by-compare relies on
		if hl := t.tables[i].histLen; hl <= 0 || hl >= len(t.hist) {
			return nil, fmt.Errorf("branch: TAGE component %d history length %d out of range (%d entries)", i, hl, len(t.hist))
		}
	}
	return t, nil
}

// Head byte of an encoded BTB entry. An entry that was never valid and
// never aged (tag, target and LRU age all zero) is the one byte btbEmpty;
// any other entry is its head, then uvarint tag | uvarint target | u8 age.
// A set's invalid ways age with their valid neighbours, so btbInvalid
// entries exist; one whose fields are all zero is refused, because
// btbEmpty already says that.
const (
	btbEmpty = iota
	btbValid
	btbInvalid
)

// EncodeState serializes the BTB's geometry and warmed contents. An 8K-entry
// BTB warmed by a loop kernel holds a few dozen branches, so the empty
// form is what most entries take.
func (b *BTB) EncodeState(w *codec.Writer) {
	w.Int(b.sets)
	w.Int(b.ways)
	w.U32(uint32(len(b.tags)))
	for i, tag := range b.tags {
		switch {
		case b.valid[i]:
			w.U8(btbValid)
		case tag == 0 && b.targets[i] == 0 && b.lru[i] == 0:
			w.U8(btbEmpty)
			continue
		default:
			w.U8(btbInvalid)
		}
		w.Uvarint(tag)
		w.Uvarint(uint64(b.targets[i]))
		w.U8(b.lru[i])
	}
	w.U64(b.hits)
	w.U64(b.miss)
}

// DecodeBTB reconstructs a BTB encoded by EncodeState.
func DecodeBTB(r *codec.Reader) (*BTB, error) {
	sets := r.Int()
	ways := r.Int()
	n := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if sets <= 0 || ways <= 0 || n > maxTableLen || n/ways != sets || n%ways != 0 || n > r.Remaining() {
		return nil, fmt.Errorf("branch: BTB geometry %dx%d does not match %d entries in %d bytes", sets, ways, n, r.Remaining())
	}
	b := &BTB{
		sets: sets, ways: ways,
		tags:    make([]uint64, n),
		valid:   make([]bool, n),
		targets: make([]int, n),
		lru:     make([]uint8, n),
	}
	for i := 0; i < n; i++ {
		head := r.U8()
		if head == btbEmpty {
			continue
		}
		b.valid[i] = head == btbValid
		b.tags[i] = r.Uvarint()
		target := r.Uvarint()
		b.targets[i] = int(target)
		b.lru[i] = r.U8()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if head > btbInvalid || uint64(b.targets[i]) != target {
			return nil, fmt.Errorf("branch: BTB entry %d: head byte %#x, target %#x", i, head, target)
		}
		if head == btbInvalid && b.tags[i] == 0 && target == 0 && b.lru[i] == 0 {
			return nil, fmt.Errorf("branch: BTB entry %d: present but all zero", i)
		}
	}
	b.hits = r.U64()
	b.miss = r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// EncodeState serializes the return address stack.
func (s *RAS) EncodeState(w *codec.Writer) {
	w.U32(uint32(len(s.stack)))
	for _, v := range s.stack {
		w.Int(v)
	}
	w.Int(s.top)
	w.Int(s.depth)
}

// DecodeRAS reconstructs a RAS encoded by EncodeState.
func DecodeRAS(r *codec.Reader) (*RAS, error) {
	n := int(r.U32())
	if n <= 0 || n > maxTableLen || n > r.Remaining()/8 {
		return nil, fmt.Errorf("branch: RAS size %d out of range (%d bytes encoded)", n, r.Remaining())
	}
	s := &RAS{stack: make([]int, n)}
	for i := range s.stack {
		s.stack[i] = r.Int()
	}
	s.top = r.Int()
	s.depth = r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if s.top < 0 || s.top >= n || s.depth < 0 || s.depth > n {
		return nil, fmt.Errorf("branch: RAS top %d / depth %d out of range (%d entries)", s.top, s.depth, n)
	}
	return s, nil
}
