package cache

import (
	"fmt"

	"crisp/internal/codec"
)

// The cache level as it stood before the MSHR file and the packed tag
// store: an AoS []refLine scanned by hand at every use, and the MSHRs as a
// Go map from line address to entry. Kept verbatim (types renamed ref*,
// New renamed newRefCache, nothing else touched) as the oracle for
// TestMatchesReferenceCache and the encoder for TestEncodeMatchesReference.

type refLine struct {
	tag        uint64
	valid      bool
	dirty      bool
	readyAt    uint64 // fill completion time (hit-under-fill)
	lru        uint64 // touch timestamp; 64-bit so it never wraps
	prefetched bool   // filled by prefetch, not yet demand-referenced
	fillDepth  int8   // levels below that served the fill
}

// refCache is one set-associative level. A level shared between cores (the
// multi-core LLC) keeps one set of tags, MSHRs, and timing state — every
// requester contends for them — but routes statistics and miss-observer
// callbacks to the active requester (SetRequesters/SetRequester).
type refCache struct {
	cfg      Config
	sets     int
	lineBits uint
	lines    []refLine // sets*ways
	lruClock uint64    // uint32 wrapped after ~4B touches, inverting LRU order
	next     Backend
	pf       Prefetcher
	mshr     map[uint64]refMSHREntry // line addr -> in-flight miss
	stats    Stats
	cur      *Stats  // increment target: &stats, or the active requester's slot
	perReq   []Stats // per-requester counters when shared (SetRequesters)
	req      int     // active requester index

	// lastLevel marks the LLC: its misses are reported to miss observers
	// (per-PC profiling, IBDA's delinquent load table).
	missObs func(pc, lineAddr uint64)
	perObs  []func(pc, lineAddr uint64) // per-requester observers when shared
}

// New returns a cache level in front of next.
func newRefCache(cfg Config, next Backend) *refCache {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	lines := cfg.SizeKiB * 1024 / cfg.LineSize
	sets := lines / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 16
	}
	c := &refCache{
		cfg:   cfg,
		sets:  sets,
		lines: make([]refLine, sets*cfg.Ways),
		next:  next,
		mshr:  make(map[uint64]refMSHREntry),
	}
	c.cur = &c.stats
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.lineBits++
	}
	return c
}

// SetRequesters switches this level to per-requester statistics and miss
// observers for n requesters (cores sharing the LLC). Tags, MSHRs, and
// timing stay shared; only attribution changes. Requester 0 is active.
func (c *refCache) SetRequesters(n int) {
	c.perReq = make([]Stats, n)
	c.perObs = make([]func(pc, lineAddr uint64), n)
	c.cur = &c.perReq[0]
	c.req = 0
}

// SetRequester selects which requester subsequent accesses are attributed
// to. Only valid after SetRequesters.
func (c *refCache) SetRequester(i int) {
	c.req = i
	c.cur = &c.perReq[i]
}

// RequesterStats returns requester i's counters.
func (c *refCache) RequesterStats(i int) Stats { return c.perReq[i] }

// SetRequesterMissObserver registers a primary-miss callback fired only
// for requester i's demand misses at this level.
func (c *refCache) SetRequesterMissObserver(i int, f func(pc, lineAddr uint64)) {
	c.perObs[i] = f
}

// SetPrefetcher attaches a prefetcher to this level.
func (c *refCache) SetPrefetcher(p Prefetcher) { c.pf = p }

// SetMissObserver registers a callback invoked on every primary demand
// miss at this level with the access PC (used at the LLC for profiling and
// for IBDA's delinquent load table).
func (c *refCache) SetMissObserver(f func(pc, lineAddr uint64)) { c.missObs = f }

// Stats returns a copy of this level's counters, summed across requesters
// when per-requester attribution is active.
func (c *refCache) Stats() Stats {
	if c.perReq == nil {
		return c.stats
	}
	sum := c.stats
	for i := range c.perReq {
		sum.Add(&c.perReq[i])
	}
	return sum
}

// Config returns the level's configuration.
func (c *refCache) Config() Config { return c.cfg }

func (c *refCache) lineAddr(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

func (c *refCache) set(lineAddr uint64) int {
	return int((lineAddr >> c.lineBits) % uint64(c.sets))
}

type refMSHREntry struct {
	done  uint64
	depth int8 // levels below this one the miss descended (1 = next level)
}

// Access implements Backend for accesses with no PC attribution.
func (c *refCache) Access(addr uint64, write bool, cycle uint64) uint64 {
	done, _ := c.AccessPC(NoPC, addr, write, cycle)
	return done
}

// AccessPC services a demand access attributed to the instruction at pc.
// It returns the completion cycle and the depth at which the access was
// served: 0 = hit in this cache, 1 = next level, 2 = the level after, etc.
func (c *refCache) AccessPC(pc, addr uint64, write bool, cycle uint64) (done uint64, depth int8) {
	c.cur.Accesses++
	la := c.lineAddr(addr)
	base := c.set(la) * c.cfg.Ways

	// Hit path (including hit-under-fill on an in-flight line).
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == la {
			wasPrefetched := ln.prefetched
			if wasPrefetched {
				ln.prefetched = false
				c.cur.PrefetchHits++
			}
			if write {
				ln.dirty = true
			}
			c.touch(ln)
			done = cycle + uint64(c.cfg.Latency)
			if ln.readyAt > done {
				// The line is still in flight: the access merges with the
				// outstanding fill and is served from the fill's level.
				done = ln.readyAt
				c.cur.MergedMisses++
				if wasPrefetched {
					c.cur.PrefetchLate++
				}
				c.firePrefetch(pc, addr, true, cycle)
				return done, ln.fillDepth
			}
			c.cur.Hits++
			c.firePrefetch(pc, addr, true, cycle)
			return done, 0
		}
	}

	// Secondary miss: merge into outstanding MSHR.
	if pending, ok := c.mshr[la]; ok && pending.done > cycle {
		c.cur.MergedMisses++
		c.firePrefetch(pc, addr, false, cycle)
		if write {
			c.markDirtyAfterFill(la)
		}
		return pending.done, pending.depth
	}

	// Primary miss.
	c.cur.Misses++
	if pc != NoPC {
		if c.missObs != nil {
			c.missObs(pc, la)
		}
		if c.perObs != nil && c.perObs[c.req] != nil {
			c.perObs[c.req](pc, la)
		}
	}
	start := c.mshrAdmit(cycle)
	fillDone, d := c.accessNext(pc, la, start+uint64(c.cfg.Latency))
	c.mshr[la] = refMSHREntry{done: fillDone, depth: d}
	c.fill(la, fillDone, d, write, false, cycle)
	c.firePrefetch(pc, addr, false, cycle)
	return fillDone, d
}

// accessNext forwards a miss to the next level, preserving PC attribution
// when the next level supports it, and returns completion and serve depth
// relative to this level.
func (c *refCache) accessNext(pc, la uint64, cycle uint64) (done uint64, depth int8) {
	if nb, ok := c.next.(pcBackend); ok {
		d2, nd := nb.AccessPC(pc, la, false, cycle)
		return d2, nd + 1
	}
	return c.next.Access(la, false, cycle), 1
}

// Prefetch requests a line fill without demand semantics. It is a no-op if
// the line is already present or in flight.
func (c *refCache) Prefetch(addr uint64, cycle uint64) {
	la := c.lineAddr(addr)
	base := c.set(la) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == la {
			return
		}
	}
	if pending, ok := c.mshr[la]; ok && pending.done > cycle {
		return
	}
	start := c.mshrAdmit(cycle)
	fillDone, d := c.accessNext(NoPC, la, start+uint64(c.cfg.Latency))
	c.mshr[la] = refMSHREntry{done: fillDone, depth: d}
	c.cur.Prefetches++
	c.fill(la, fillDone, d, false, true, cycle)
}

// firePrefetch runs the attached prefetcher and issues its suggestions.
func (c *refCache) firePrefetch(pc, addr uint64, hit bool, cycle uint64) {
	if c.pf == nil {
		return
	}
	for _, target := range c.pf.OnAccess(pc, addr, hit) {
		c.Prefetch(target, cycle)
	}
}

// mshrAdmit returns the cycle at which a new miss may start, delaying it
// if all MSHRs are occupied, and garbage-collects completed entries.
func (c *refCache) mshrAdmit(cycle uint64) uint64 {
	if len(c.mshr) < c.cfg.MSHRs {
		return cycle
	}
	earliest := ^uint64(0)
	for la, e := range c.mshr {
		if e.done <= cycle {
			delete(c.mshr, la)
		} else if e.done < earliest {
			earliest = e.done
		}
	}
	if len(c.mshr) < c.cfg.MSHRs {
		return cycle
	}
	c.cur.MSHRStalls += earliest - cycle
	// Free the earliest-completing entry: it will have completed by then.
	for la, e := range c.mshr {
		if e.done == earliest {
			delete(c.mshr, la)
			break
		}
	}
	return earliest
}

func (c *refCache) fill(la uint64, readyAt uint64, depth int8, dirty, prefetched bool, cycle uint64) {
	base := c.set(la) * c.cfg.Ways
	victim := 0
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if !ln.valid {
			victim = w
			break
		}
		if ln.lru < c.lines[base+victim].lru {
			victim = w
		}
	}
	v := &c.lines[base+victim]
	if v.valid && v.dirty {
		c.cur.Writebacks++
		c.next.Access(v.tag, true, cycle)
	}
	*v = refLine{tag: la, valid: true, dirty: dirty, readyAt: readyAt, prefetched: prefetched, fillDepth: depth}
	c.touch(v)
}

func (c *refCache) markDirtyAfterFill(la uint64) {
	base := c.set(la) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == la {
			ln.dirty = true
			return
		}
	}
}

func (c *refCache) touch(ln *refLine) {
	c.lruClock++
	ln.lru = c.lruClock
}

// MSHROccupancy returns the number of MSHR entries still tracking an
// in-flight miss at the given cycle. Completed entries are garbage
// collected lazily (on admission pressure), so they are excluded here
// rather than trusting len(c.mshr).
func (c *refCache) MSHROccupancy(cycle uint64) int {
	n := 0
	for _, e := range c.mshr {
		if e.done > cycle {
			n++
		}
	}
	return n
}

// Warm touches the line holding addr without any timing or statistics:
// a hit refreshes LRU (and dirtiness on a write), a miss installs the
// line ready-at-cycle-0 over the LRU victim, dropping any dirty victim
// silently (tags only — data lives in emu.Memory). It reports whether
// the line was already resident so hierarchy warming can recurse into
// the next level only on a miss. Used by the sampled-simulation
// functional-warming phase, which precedes the measured window.
func (c *refCache) Warm(addr uint64, write bool) bool {
	la := c.lineAddr(addr)
	base := c.set(la) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == la {
			if write {
				ln.dirty = true
			}
			c.touch(ln)
			return true
		}
	}
	// Same victim choice as fill: first invalid way, else LRU.
	victim := 0
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if !ln.valid {
			victim = w
			break
		}
		if ln.lru < c.lines[base+victim].lru {
			victim = w
		}
	}
	v := &c.lines[base+victim]
	*v = refLine{tag: la, valid: true, dirty: write}
	c.touch(v)
	return false
}

// WarmPrefetch is the warming counterpart of Prefetch: it installs addr's
// line if absent (same victim choice as fill) and reports whether it was
// already present. Unlike Warm it does not promote a present line,
// mirroring Prefetch's early return on a duplicate suggestion.
func (c *refCache) WarmPrefetch(addr uint64) bool {
	la := c.lineAddr(addr)
	base := c.set(la) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == la {
			return true
		}
	}
	victim := 0
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if !ln.valid {
			victim = w
			break
		}
		if ln.lru < c.lines[base+victim].lru {
			victim = w
		}
	}
	v := &c.lines[base+victim]
	*v = refLine{tag: la, valid: true}
	c.touch(v)
	return false
}

// CloneState returns a copy of this level's warmed tag/LRU state wired in
// front of next, with fresh (empty) MSHRs, no prefetcher, no miss
// observer, and zeroed statistics. Checkpoint restore clones the warmed
// template once per detailed window so configs sharing a checkpoint never
// see each other's mutations.
func (c *refCache) CloneState(next Backend) *refCache {
	cl := &refCache{
		cfg:      c.cfg,
		sets:     c.sets,
		lineBits: c.lineBits,
		lines:    append([]refLine(nil), c.lines...),
		lruClock: c.lruClock,
		next:     next,
		mshr:     make(map[uint64]refMSHREntry),
	}
	cl.cur = &cl.stats
	return cl
}

// MarkDirty sets the dirty bit on the resident line holding addr, if
// any, without touching LRU, statistics or timing. Co-scheduled warming
// uses it to deliver a store's dirtiness to this level when a higher
// level absorbed the store itself (see Hierarchy.WarmDataShared).
func (c *refCache) MarkDirty(addr uint64) {
	la := c.lineAddr(addr)
	base := c.set(la) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == la {
			ln.dirty = true
			return
		}
	}
}

// Invalidate drops every resident line and resets the LRU clock,
// leaving the level as cold as a fresh build (test hook: the sampling
// equivalence tests cool one level of a warmed checkpoint to prove the
// tolerance check would catch missing warm-up).
func (c *refCache) Invalidate() {
	for i := range c.lines {
		c.lines[i] = refLine{}
	}
	c.lruClock = 0
}

// Contains reports whether the line holding addr is resident (test hook).
func (c *refCache) Contains(addr uint64) bool {
	la := c.lineAddr(addr)
	base := c.set(la) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == la {
			return true
		}
	}
	return false
}

// EncodeState serializes the level's warmed lines and LRU clock.
func (c *refCache) EncodeState(w *codec.Writer) {
	w.U32(uint32(len(c.lines)))
	for i := range c.lines {
		ln := &c.lines[i]
		var flags uint8
		if ln.valid {
			flags |= lineValid
		}
		if ln.dirty {
			flags |= lineDirty
		}
		if ln.prefetched {
			flags |= linePrefetched
		}
		w.U64(ln.tag)
		w.U8(flags)
		w.U64(ln.readyAt)
		w.U64(ln.lru)
		w.I8(ln.fillDepth)
	}
	w.U64(c.lruClock)
}

// refEncodeState and refDecodeState are Cache.EncodeState and
// Cache.DecodeState as they stood in codec version 1, verbatim: 26 bytes a
// line — u64 line address | u8 flags | u64 readyAt | u64 lru | i8 fill
// depth — then the LRU clock. They are the reference for what a level's
// state is: the dense form must carry every state through unchanged by
// this account, and (TestEncodeMatchesReference) this account of the
// packed cache is byte for byte refCache.EncodeState's of the reference.
func (c *Cache) refEncodeState(w *codec.Writer) {
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

func (c *Cache) refDecodeState(r *codec.Reader) error {
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

// refEncode is the version-1 encoding of a sequence of levels.
func refEncode(levels ...*Cache) []byte {
	var w codec.Writer
	for _, c := range levels {
		c.refEncodeState(&w)
	}
	return w.Bytes()
}
