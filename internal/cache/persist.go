package cache

import (
	"fmt"

	"crisp/internal/codec"
)

// This file serializes warmed cache tag/LRU state for the persistent
// checkpoint store. Geometry is not encoded: the store keys checkpoint
// sets by hierarchy configuration, and the decoder rebuilds structure
// from the same HierConfig the warmer used, so only the warm contents —
// lines and the LRU clock — travel. MSHRs, statistics and attachments
// are per-window state that CloneState already resets; they are never
// warm at capture time and are not encoded.
//
// A level is u32 line count | uvarint lruClock | lines, and a line is
//
//	0x00                                  a way never filled: tag word, LRU
//	                                      stamp, readyAt and depth all zero
//	head | uvarint tag word | uvarint lruClock-lru | [uvarint readyAt] | [i8 depth]
//
// with head = encPresent, plus encReadyAt / encDepth when that field is
// non-zero and follows. The tag word is the one cache.go holds (line
// address | flags). A stamp is stored as its distance behind the clock,
// which is small for every recently touched line where the stamp itself
// grows with the run. Warming leaves readyAt and depth zero, so a warmed
// line is about nine bytes and an untouched way one. Each state has one
// encoding: the decoder refuses a present line that is all zero, a zero in
// an announced field, a stamp ahead of the clock, and a tag word with a bit
// set between the flags and the line address.

// Head bits of an encoded line.
const (
	encPresent = 1 << iota
	encReadyAt
	encDepth
)

// EncodeState serializes the level's warmed lines and LRU clock.
func (c *Cache) EncodeState(w *codec.Writer) {
	w.U32(uint32(len(c.tags)))
	w.Uvarint(c.lruClock)
	for i, t := range c.tags {
		lru, ready, depth := c.lru[i], c.readyAt[i], c.depth[i]
		if t == 0 && lru == 0 && ready == 0 && depth == 0 {
			w.U8(0)
			continue
		}
		head := uint8(encPresent)
		if ready != 0 {
			head |= encReadyAt
		}
		if depth != 0 {
			head |= encDepth
		}
		w.U8(head)
		w.Uvarint(t)
		w.Uvarint(c.lruClock - lru)
		if ready != 0 {
			w.Uvarint(ready)
		}
		if depth != 0 {
			w.I8(depth)
		}
	}
}

// DecodeState overwrites the level's lines and LRU clock with encoded
// warm state. The line count must match this cache's geometry — the
// caller builds the hierarchy from the config the state was warmed with —
// and every line must be the one encoding EncodeState gives its state.
func (c *Cache) DecodeState(r *codec.Reader) error {
	n := int(r.U32())
	clock := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(c.tags) {
		return fmt.Errorf("cache: %s encoded with %d lines, geometry has %d", c.cfg.Name, n, len(c.tags))
	}
	unpackable := (uint64(1)<<c.lineBits - 1) &^ lineFlags
	clear(c.hint) // guesses about the lines being overwritten
	for i := range c.tags {
		head := r.U8()
		var tag, lru, ready uint64
		var depth int8
		if head != 0 {
			var dist uint64
			tag, dist = r.Uvarint(), r.Uvarint()
			if head&encReadyAt != 0 {
				ready = r.Uvarint()
			}
			if head&encDepth != 0 {
				depth = r.I8()
			}
			if r.Err() != nil {
				return r.Err()
			}
			switch {
			case head&encPresent == 0 || head&^(encPresent|encReadyAt|encDepth) != 0:
				return fmt.Errorf("cache: %s line %d: head byte %#x", c.cfg.Name, i, head)
			case tag&unpackable != 0:
				return fmt.Errorf("cache: %s line %d: tag word %#x has a bit set between the flags and the line address", c.cfg.Name, i, tag)
			case dist > clock:
				return fmt.Errorf("cache: %s line %d: LRU stamp %d touches ahead of the clock %d", c.cfg.Name, i, dist, clock)
			case head&encReadyAt != 0 && ready == 0, head&encDepth != 0 && depth == 0:
				return fmt.Errorf("cache: %s line %d: head %#x announces a field that is zero", c.cfg.Name, i, head)
			case head == encPresent && tag == 0 && dist == clock:
				return fmt.Errorf("cache: %s line %d: present but all zero", c.cfg.Name, i)
			}
			lru = clock - dist
		}
		c.tags[i], c.lru[i], c.readyAt[i], c.depth[i] = tag, lru, ready, depth
	}
	c.lruClock = clock
	return r.Err()
}

// checkDecodable refuses a geometry the hierarchy decoders must not build
// from bytes they cannot trust: one a constructor would panic on, or one
// whose tables are larger than the bytes left to fill them (a line costs
// at least one byte, and no level has more MSHRs than lines, nor the DRAM
// more banks than the hierarchy has lines). A decoder that checks first allocates in proportion to its
// input however a corrupt configuration reads.
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

// EncodeState serializes the hierarchy's warmed state: the three levels'
// lines and LRU clocks. The geometry (cfg) is carried out of band by the
// checkpoint codec.
func (h *Hierarchy) EncodeState(w *codec.Writer) {
	h.L1I.EncodeState(w)
	h.L1D.EncodeState(w)
	h.LLC.EncodeState(w)
}

// DecodeHierarchy builds a fresh hierarchy from cfg and overlays encoded
// warm state onto its levels. Timing state (MSHRs, DRAM, statistics) is
// fresh, exactly as Hierarchy.Clone hands to a detailed window.
func DecodeHierarchy(r *codec.Reader, cfg HierConfig) (*Hierarchy, error) {
	if err := cfg.checkDecodable(1, r.Remaining()); err != nil {
		return nil, err
	}
	h := NewHierarchy(cfg)
	for _, c := range []*Cache{h.L1I, h.L1D, h.LLC} {
		if err := c.DecodeState(r); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// EncodeState serializes the shared hierarchy's warmed state: every
// view's private L1I/L1D, then the one shared LLC exactly once. The
// view count and geometry travel out of band with the checkpoint codec.
func (sh *SharedHierarchy) EncodeState(w *codec.Writer) {
	w.U32(uint32(len(sh.Views)))
	for _, v := range sh.Views {
		v.L1I.EncodeState(w)
		v.L1D.EncodeState(w)
	}
	sh.LLC.EncodeState(w)
}

// DecodeSharedHierarchy builds a fresh n-core shared hierarchy from cfg
// and overlays encoded warm state onto every private L1 and the shared
// LLC. Timing state is fresh, as SharedHierarchy.CloneState hands to a
// detailed window.
func DecodeSharedHierarchy(r *codec.Reader, cfg HierConfig, n int) (*SharedHierarchy, error) {
	got := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if got != n {
		return nil, fmt.Errorf("cache: shared hierarchy encoded with %d views, want %d", got, n)
	}
	if err := cfg.checkDecodable(n, r.Remaining()); err != nil {
		return nil, err
	}
	sh := NewSharedHierarchy(cfg, n)
	for _, v := range sh.Views {
		if err := v.L1I.DecodeState(r); err != nil {
			return nil, err
		}
		if err := v.L1D.DecodeState(r); err != nil {
			return nil, err
		}
	}
	if err := sh.LLC.DecodeState(r); err != nil {
		return nil, err
	}
	return sh, nil
}
