package branch

import (
	"fmt"
	"math/bits"

	"crisp/internal/codec"
)

// This file serializes the warmed frontend structures for the persistent
// checkpoint store, so that a decoded structure is the warmed original —
// including history registers, usefulness clocks and the allocation RNG,
// which all influence later predictions. The predictor is written as its
// constructor's arguments, then its training state: its decoder builds it
// with NewTAGE and reads only the state. Decoders validate what they read
// against sane bounds and never panic on corrupt input: the store treats a
// decode error as a miss and recaptures.

// EncodeState serializes the predictor: log2 of its base and tagged table
// lengths, then its full training state.
func (t *TAGE) EncodeState(w *codec.Writer) {
	w.U8(uint8(bits.Len(uint(len(t.base))) - 1))
	w.U8(uint8(bits.Len(uint(len(t.tables[0].entries))) - 1))
	for _, c := range t.base {
		w.I8(c)
	}
	for i := range t.tables {
		tbl := &t.tables[i]
		for _, e := range tbl.entries {
			w.U16(e.tag)
			w.I8(e.ctr)
			w.U8(e.u)
		}
		w.U64(tbl.idxFold.comp)
		w.U64(tbl.tagFold1.comp)
		w.U64(tbl.tagFold2.comp)
	}
	w.Raw(t.hist)
	w.Int(t.histPos)
	w.I8(t.useAltOnNA)
	w.U64(t.tick)
	w.U64(t.rng)
	w.U64(t.mispred)
	w.U64(t.total)
}

// maxTableLen bounds decoded table sizes. Every decoder also checks a
// length prefix against the bytes left before it allocates
// (codec.Reader.Len), so a corrupt prefix cannot drive an allocation
// larger than its input.
const maxLogTable, maxTableLen = 24, 1 << maxLogTable

// DecodeTAGE reconstructs a predictor encoded by EncodeState.
func DecodeTAGE(r *codec.Reader) (*TAGE, error) {
	logBase, logTagged := int(r.U8()), int(r.U8())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// The tables take 1 byte a base counter and 4 a tagged entry.
	if logBase > maxLogTable || logTagged < 1 || logTagged > maxLogTable ||
		1<<logBase+4*len(tageHistLens)<<logTagged > r.Remaining() {
		return nil, fmt.Errorf("branch: TAGE sizes 2^%d, 2^%d out of range (%d bytes left)", logBase, logTagged, r.Remaining())
	}
	t := NewTAGE(logBase, logTagged)
	for i := range t.base {
		t.base[i] = r.I8()
	}
	for i := range t.tables {
		tbl := &t.tables[i]
		for j := range tbl.entries {
			tbl.entries[j] = tageEntry{tag: r.U16(), ctr: r.I8(), u: r.U8()}
		}
		tbl.idxFold.comp = r.U64()
		tbl.tagFold1.comp = r.U64()
		tbl.tagFold2.comp = r.U64()
	}
	copy(t.hist, r.Raw(len(t.hist)))
	t.histPos = r.Int()
	t.useAltOnNA = r.I8()
	t.tick = r.U64()
	t.rng = r.U64()
	t.mispred = r.U64()
	t.total = r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if t.histPos < 0 || t.histPos >= len(t.hist) {
		return nil, fmt.Errorf("branch: TAGE history position %d out of range (%d entries)", t.histPos, len(t.hist))
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
	n, err := r.Len(uint64(r.U32()), "BTB geometry", 1, maxTableLen, 1)
	if err != nil {
		return nil, err
	}
	if sets <= 0 || ways <= 0 || n/ways != sets || n%ways != 0 {
		return nil, fmt.Errorf("branch: BTB geometry %dx%d does not match %d entries", sets, ways, n)
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
	n, err := r.Len(uint64(r.U32()), "RAS", 1, maxTableLen, 8)
	if err != nil {
		return nil, err
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
