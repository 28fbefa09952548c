package cache

import (
	"fmt"

	"crisp/internal/codec"
)

// This file serializes a Template for the persistent checkpoint store.
// Geometry is not encoded: the store keys checkpoint sets by hierarchy
// configuration, and the decoder sizes the template from the same
// HierConfig the warmer used, so only the lines travel. A template holds
// no timing state, and the clock is the way count, so neither is encoded.
//
// A level is u32 line count | lines, and a line is
//
//	0x00                       a way never filled (tag word zero)
//	uvarint tag word | uvarint rank
//
// The tag word is the one cache.go holds (line address | flags), so a
// filled way's has the valid bit and is not zero. Ranks are stored for
// filled ways only: a set's invalid ways rank lowest, in way order, so the
// decoder gives them 1, 2, ... and requires the filled ways' ranks to be
// the rest of 1..ways, each once. A filled line is its tag word's varint
// and a byte of rank, five or six bytes under Table 1; an untouched way
// one. Each template has one encoding: the decoder refuses a tag word
// without the valid bit or with a bit set between the flags and the line
// address, a rank above the way count, and a set whose ranks repeat or
// leave a gap.

// checkDecodable refuses a geometry read from bytes DecodeTemplate cannot
// trust: one a constructor (Restore's) would panic on, or one whose tables
// are larger than the bytes left to fill them (a line costs at least one
// byte, and no level has more MSHRs than lines, nor the DRAM more banks
// than the hierarchy has lines). A decoder that checks first allocates in
// proportion to its input however a corrupt configuration reads.
func (cfg HierConfig) checkDecodable(views, remaining int) error {
	total := 0
	for _, l := range []struct {
		Config
		copies int
	}{{cfg.L1I, views}, {cfg.L1D, views}, {cfg.LLC, 1}} {
		ls := l.LineSize
		if ls == 0 {
			ls = 64
		}
		if l.SizeKiB < 1 || l.SizeKiB > 1<<20 || l.Ways < 1 || l.Ways > 1<<10 || ls <= lineFlags || ls > 1<<12 || ls&(ls-1) != 0 {
			return fmt.Errorf("cache: %s geometry %d KiB / %d ways / %d B lines out of range", l.Name, l.SizeKiB, l.Ways, l.LineSize)
		}
		lines := max(l.SizeKiB*1024/ls/l.Ways, 1) * l.Ways
		if l.MSHRs < 0 || l.MSHRs > lines {
			return fmt.Errorf("cache: %s has %d MSHRs for %d lines", l.Name, l.MSHRs, lines)
		}
		total += l.copies * lines
	}
	if cfg.DRAM.Banks < 0 || cfg.DRAM.Banks > total {
		return fmt.Errorf("cache: %d DRAM banks behind %d lines", cfg.DRAM.Banks, total)
	}
	if total > remaining {
		return fmt.Errorf("cache: geometry holds %d lines, only %d bytes encoded", total, remaining)
	}
	return nil
}

// Encode writes the template's lines: every view's L1I and L1D, then the
// LLC. The view count and the geometry travel out of band with the
// checkpoint codec.
func (t *Template) Encode(w *codec.Writer) {
	for i := range t.l1s {
		t.l1s[i].encode(w)
	}
	t.LLC.encode(w)
}

func (l *Lines) encode(w *codec.Writer) {
	w.U32(uint32(len(l.tags)))
	for i, t := range l.tags {
		w.Uvarint(t)
		if t != 0 {
			w.Uvarint(uint64(l.ranks[i]))
		}
	}
}

// DecodeTemplate reads the template of a views-core hierarchy of geometry
// cfg that Encode wrote, allocating the lines of that geometry and nothing
// sized by the input.
func DecodeTemplate(r *codec.Reader, cfg HierConfig, views int) (*Template, error) {
	if err := cfg.checkDecodable(views, r.Remaining()); err != nil {
		return nil, err
	}
	t := &Template{cfg: cfg, l1s: make([]Lines, 2*views)}
	for i := range t.l1s {
		lc := cfg.L1I
		if i%2 == 1 {
			lc = cfg.L1D
		}
		if err := t.l1s[i].decode(r, lc); err != nil {
			return nil, err
		}
	}
	if err := t.LLC.decode(r, cfg.LLC); err != nil {
		return nil, err
	}
	return t, nil
}

// decode reads one level of geometry cfg into l.
func (l *Lines) decode(r *codec.Reader, cfg Config) error {
	cfg, sets, lineBits := shape(cfg)
	w, n := cfg.Ways, int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if n != sets*w {
		return fmt.Errorf("cache: %s encoded with %d lines, geometry has %d", cfg.Name, n, sets*w)
	}
	*l = Lines{ways: w, tags: make([]uint64, n), ranks: make([]uint16, n)}
	unpackable := (uint64(1)<<lineBits - 1) &^ lineFlags
	seen := make([]bool, w+1)
	for base := 0; base < n; base += w {
		empty := 0
		for i := base; i < base+w; i++ {
			tag := r.Uvarint()
			if tag == 0 {
				empty++
				continue
			}
			rank := r.Uvarint()
			switch {
			case tag&lineValid == 0:
				return fmt.Errorf("cache: %s line %d: tag word %#x without the valid bit", cfg.Name, i, tag)
			case tag&unpackable != 0:
				return fmt.Errorf("cache: %s line %d: tag word %#x has a bit set between the flags and the line address", cfg.Name, i, tag)
			case rank > uint64(w):
				return fmt.Errorf("cache: %s line %d: rank %d above the way count %d", cfg.Name, i, rank, w)
			}
			l.tags[i], l.ranks[i] = tag, uint16(rank)
		}
		if r.Err() != nil {
			return r.Err()
		}
		clear(seen)
		for i, next := base, uint16(0); i < base+w; i++ {
			switch rank := l.ranks[i]; {
			case l.tags[i] == 0:
				next++
				l.ranks[i] = next
			case int(rank) <= empty || seen[rank]:
				return fmt.Errorf("cache: %s line %d: rank %d repeated, or not above the set's %d empty ways", cfg.Name, i, rank, empty)
			default:
				seen[rank] = true
			}
		}
	}
	return nil
}
