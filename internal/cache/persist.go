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
// A line is 26 bytes: u64 line address | u8 flags | u64 readyAt | u64 lru |
// i8 fill depth. In memory the flags share the tag word with the address
// (cache.go); the encoded form keeps them apart, so the decoder must refuse
// any line whose two fields would overlap when packed.

// EncodeState serializes the level's warmed lines and LRU clock.
func (c *Cache) EncodeState(w *codec.Writer) {
	w.U32(uint32(len(c.tags)))
	for i, t := range c.tags {
		w.U64(t &^ lineFlags)
		w.U8(uint8(t & lineFlags))
		w.U64(c.readyAt[i])
		w.U64(c.lru[i])
		w.I8(c.depth[i])
	}
	w.U64(c.lruClock)
}

// DecodeState overwrites the level's lines and LRU clock with encoded
// warm state. The line count must match this cache's geometry — the
// caller builds the hierarchy from the config the state was warmed with —
// and every line must be one EncodeState can write: an address aligned to
// the line size and no flag bit beyond valid/dirty/prefetched.
func (c *Cache) DecodeState(r *codec.Reader) error {
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(c.tags) {
		return fmt.Errorf("cache: %s encoded with %d lines, geometry has %d", c.cfg.Name, n, len(c.tags))
	}
	for i := range c.tags {
		la := r.U64()
		flags := r.U8()
		if la&(1<<c.lineBits-1) != 0 || flags&^lineFlags != 0 {
			return fmt.Errorf("cache: %s line %d: address %#x is not line-aligned or flags %#x has a bit beyond valid/dirty/prefetched", c.cfg.Name, i, la, flags)
		}
		c.tags[i] = la | uint64(flags)
		c.readyAt[i] = r.U64()
		c.lru[i] = r.U64()
		c.depth[i] = r.I8()
	}
	c.lruClock = r.U64()
	return r.Err()
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
