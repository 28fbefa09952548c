// Package cache implements the simulated multi-level cache hierarchy:
// set-associative write-back caches with LRU replacement, MSHRs that merge
// and bound outstanding misses, and prefetcher attachment points. Caches
// are latency-returning: Access reports when the requested data is
// available, threading timing through to the DRAM backend.
package cache

import "slices"

// Backend is anything that can service a line request: the next cache
// level or DRAM.
type Backend interface {
	// Access requests the line containing addr at the given cycle and
	// returns the completion cycle.
	Access(addr uint64, write bool, cycle uint64) uint64
}

// NoPC marks an access without instruction attribution (prefetch fills,
// write-backs).
const NoPC = ^uint64(0)

// pcBackend is implemented by cache levels that accept PC-attributed
// accesses, letting demand misses keep their attribution as they descend
// the hierarchy.
type pcBackend interface {
	AccessPC(pc, addr uint64, write bool, cycle uint64) (done uint64, depth int8)
}

// Prefetcher observes demand accesses at a cache level and proposes line
// addresses to prefetch. Implementations live in the prefetch package.
type Prefetcher interface {
	// OnAccess is called for each demand access with the access PC, the
	// byte address, and whether it hit. It returns byte addresses whose
	// lines should be prefetched. The returned slice may alias internal
	// scratch storage and is valid only until the next OnAccess call.
	OnAccess(pc, addr uint64, hit bool) []uint64
}

// Config describes one cache level.
type Config struct {
	Name     string
	SizeKiB  int
	Ways     int
	LineSize int // bytes; 64 throughout
	Latency  int // hit latency in cycles
	MSHRs    int // max outstanding misses
}

// Stats counts cache activity at one level.
type Stats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64 // primary misses (excluding MSHR merges)
	MergedMisses uint64 // secondary misses merged into an outstanding MSHR
	Writebacks   uint64
	Prefetches   uint64 // prefetch fills issued
	PrefetchHits uint64 // demand hits on prefetched-not-yet-referenced lines
	PrefetchLate uint64 // demand hits on in-flight prefetched lines
	MSHRStalls   uint64 // cycles added waiting for a free MSHR
}

// Add accumulates another level snapshot into s (sampled-window
// aggregation).
func (s *Stats) Add(o *Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.MergedMisses += o.MergedMisses
	s.Writebacks += o.Writebacks
	s.Prefetches += o.Prefetches
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchLate += o.PrefetchLate
	s.MSHRStalls += o.MSHRStalls
}

// MissRate returns misses (incl. merged) / accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses+s.MergedMisses) / float64(s.Accesses)
}

// Flag bits a tag word carries below its line address: a line address has
// its low lineBits bits clear, so the three flags ride there and one load
// per way answers "valid and this line?". persist.go writes the same bit
// values as the flags byte of the encoded form.
const (
	lineValid = 1 << iota
	lineDirty
	linePrefetched // filled by prefetch, not yet demand-referenced
	lineFlags      = lineValid | lineDirty | linePrefetched
)

// mshrEntry tracks one in-flight miss.
type mshrEntry struct {
	la    uint64 // line address
	done  uint64
	depth int8 // levels below this one the miss descended (1 = next level)
}

// Cache is one set-associative level. A level shared between cores (the
// multi-core LLC) keeps one set of tags, MSHRs, and timing state — every
// requester contends for them — but routes statistics and miss-observer
// callbacks to the active requester (SetRequesters/SetRequester).
//
// Line state is held as parallel arrays indexed set*ways+way (25 bytes a
// line) so that a lookup walks only tag words and a victim search only tag
// words and LRU stamps. The MSHR file is a slice of at most cfg.MSHRs
// entries searched linearly; see mshrAdmit for when entries leave it.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	tags     []uint64 // line address | lineFlags bits
	// hint is, per set, the way find last matched or victim last chose: where
	// find looks before it scans. It is derived state and only ever a guess —
	// never encoded, zero on every new, cloned, decoded or invalidated level,
	// and find compares the tag before believing it. One entry a set, not a
	// line: an array the size of tags is one more cache miss a lookup. uint16
	// holds every way count the decoder admits (checkDecodable: 1024).
	hint     []uint16
	lru      []uint64 // touch timestamp; 64-bit so it never wraps
	readyAt  []uint64 // fill completion time (hit-under-fill)
	depth    []int8   // levels below that served the fill
	lruClock uint64   // uint32 wrapped after ~4B touches, inverting LRU order
	next     Backend
	pf       Prefetcher
	mshr     []mshrEntry // at most cfg.MSHRs entries, in flight or completed and not yet collected
	stats    Stats
	cur      *Stats  // increment target: &stats, or the active requester's slot
	perReq   []Stats // per-requester counters when shared (SetRequesters)
	req      int     // active requester index

	// Primary demand misses are reported to miss observers (at the LLC:
	// per-PC profiling, IBDA's delinquent load table).
	missObs func(pc, lineAddr uint64)
	perObs  []func(pc, lineAddr uint64) // per-requester observers when shared
}

// New returns a cache level in front of next.
func New(cfg Config, next Backend) *Cache {
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
	n := sets * cfg.Ways
	c := &Cache{
		cfg: cfg, sets: sets, next: next,
		tags: make([]uint64, n), lru: make([]uint64, n), readyAt: make([]uint64, n), depth: make([]int8, n),
		hint: make([]uint16, sets),
		mshr: make([]mshrEntry, 0, cfg.MSHRs),
	}
	c.cur = &c.stats
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.lineBits++
	}
	if 1<<c.lineBits <= lineFlags {
		panic("cache: line size too small to carry the flag bits in a tag word")
	}
	return c
}

// SetRequesters switches this level to per-requester statistics and miss
// observers for n requesters (cores sharing the LLC). Tags, MSHRs, and
// timing stay shared; only attribution changes. Requester 0 is active.
func (c *Cache) SetRequesters(n int) {
	c.perReq = make([]Stats, n)
	c.perObs = make([]func(pc, lineAddr uint64), n)
	c.cur = &c.perReq[0]
	c.req = 0
}

// SetRequester selects which requester subsequent accesses are attributed
// to. Only valid after SetRequesters.
func (c *Cache) SetRequester(i int) {
	c.req = i
	c.cur = &c.perReq[i]
}

// RequesterStats returns requester i's counters.
func (c *Cache) RequesterStats(i int) Stats { return c.perReq[i] }

// SetRequesterMissObserver registers a primary-miss callback fired only
// for requester i's demand misses at this level.
func (c *Cache) SetRequesterMissObserver(i int, f func(pc, lineAddr uint64)) {
	c.perObs[i] = f
}

// SetPrefetcher attaches a prefetcher to this level.
func (c *Cache) SetPrefetcher(p Prefetcher) { c.pf = p }

// SetMissObserver registers a callback invoked on every primary demand
// miss at this level with the access PC (used at the LLC for profiling and
// for IBDA's delinquent load table).
func (c *Cache) SetMissObserver(f func(pc, lineAddr uint64)) { c.missObs = f }

// Stats returns a copy of this level's counters, summed across requesters
// when per-requester attribution is active.
func (c *Cache) Stats() Stats {
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
func (c *Cache) Config() Config { return c.cfg }

// locate returns addr's line address and its set. The L1s' set counts are
// powers of two and take the mask; a division by a count the compiler
// cannot see is some forty cycles, which only the LLC (819 sets) pays.
func (c *Cache) locate(addr uint64) (la uint64, set int) {
	ln := addr >> c.lineBits
	if m := uint64(c.sets - 1); uint64(c.sets)&m == 0 {
		return ln << c.lineBits, int(ln & m)
	}
	return ln << c.lineBits, int(ln % uint64(c.sets))
}

// find returns the index of the valid line holding la in set, or -1. It
// looks at the set's hinted way first: a set holds a line at most once, so
// the way whose tag matches is the way the scan would return. This is the
// only tag lookup.
func (c *Cache) find(set int, la uint64) int {
	want := la | lineValid
	base := set * c.cfg.Ways
	if i := base + int(c.hint[set]); c.tags[i]&^(lineDirty|linePrefetched) == want {
		return i
	}
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t&^(lineDirty|linePrefetched) == want {
			c.hint[set] = uint16(i)
			return base + i
		}
	}
	return -1
}

// victim returns the index to fill in set: the first invalid way, else the
// least recently used (the lowest way on a tie). Every caller installs a
// line there, so the way becomes the set's hint.
func (c *Cache) victim(set int) int {
	base := set * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	lru := c.lru[base : base+c.cfg.Ways]
	v, oldest := 0, lru[0]
	for i, t := range tags {
		if t&lineValid == 0 {
			v = i
			break
		}
		// Stamps come in no order, so this is written for the compiler to
		// select, not branch.
		if l := lru[i]; l < oldest {
			v, oldest = i, l
		}
	}
	c.hint[set] = uint16(v)
	return base + v
}

// install overwrites line i and makes it most recently used.
func (c *Cache) install(i int, tag, readyAt uint64, depth int8) {
	c.tags[i], c.readyAt[i], c.depth[i] = tag, readyAt, depth
	c.touch(i)
}

func (c *Cache) touch(i int) {
	c.lruClock++
	c.lru[i] = c.lruClock
}

// flagIf returns flag when set, else 0.
func flagIf(set bool, flag uint64) uint64 {
	if set {
		return flag
	}
	return 0
}

// Access implements Backend for accesses with no PC attribution.
func (c *Cache) Access(addr uint64, write bool, cycle uint64) uint64 {
	done, _ := c.AccessPC(NoPC, addr, write, cycle)
	return done
}

// AccessPC services a demand access attributed to the instruction at pc.
// It returns the completion cycle and the depth at which the access was
// served: 0 = hit in this cache, 1 = next level, 2 = the level after, etc.
func (c *Cache) AccessPC(pc, addr uint64, write bool, cycle uint64) (done uint64, depth int8) {
	c.cur.Accesses++
	la, set := c.locate(addr)

	// Hit path (including hit-under-fill on an in-flight line).
	if i := c.find(set, la); i >= 0 {
		wasPrefetched := c.tags[i]&linePrefetched != 0
		if wasPrefetched {
			c.cur.PrefetchHits++
		}
		c.tags[i] = c.tags[i]&^linePrefetched | flagIf(write, lineDirty)
		c.touch(i)
		done = cycle + uint64(c.cfg.Latency)
		if c.readyAt[i] > done {
			// The line is still in flight: the access merges with the
			// outstanding fill and is served from the fill's level. The
			// depth is read after the prefetches, one of which may have
			// refilled way i.
			done = c.readyAt[i]
			c.cur.MergedMisses++
			if wasPrefetched {
				c.cur.PrefetchLate++
			}
			c.firePrefetch(pc, addr, true, cycle)
			return done, c.depth[i]
		}
		c.cur.Hits++
		c.firePrefetch(pc, addr, true, cycle)
		return done, 0
	}

	// Secondary miss: merge into outstanding MSHR.
	if j := c.mshrFind(la); j >= 0 && c.mshr[j].done > cycle {
		pending := c.mshr[j]
		c.cur.MergedMisses++
		c.firePrefetch(pc, addr, false, cycle)
		if write {
			c.MarkDirty(la)
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
	done, depth = c.miss(pc, la, set, flagIf(write, lineDirty), cycle)
	c.firePrefetch(pc, addr, false, cycle)
	return done, depth
}

// miss takes an MSHR for la, fetches the line from the next level and
// installs it with the given extra flags.
func (c *Cache) miss(pc, la uint64, set int, flags, cycle uint64) (done uint64, depth int8) {
	start := c.mshrAdmit(cycle)
	done, depth = c.accessNext(pc, la, start+uint64(c.cfg.Latency))
	c.mshrInsert(mshrEntry{la: la, done: done, depth: depth})
	c.fill(set, la|lineValid|flags, done, depth, cycle)
	return done, depth
}

// accessNext forwards a miss to the next level, preserving PC attribution
// when the next level supports it, and returns completion and serve depth
// relative to this level.
func (c *Cache) accessNext(pc, la uint64, cycle uint64) (done uint64, depth int8) {
	if nb, ok := c.next.(pcBackend); ok {
		d2, nd := nb.AccessPC(pc, la, false, cycle)
		return d2, nd + 1
	}
	return c.next.Access(la, false, cycle), 1
}

// Prefetch requests a line fill without demand semantics. It is a no-op if
// the line is already present or in flight.
func (c *Cache) Prefetch(addr uint64, cycle uint64) {
	la, set := c.locate(addr)
	if c.find(set, la) >= 0 {
		return
	}
	if j := c.mshrFind(la); j >= 0 && c.mshr[j].done > cycle {
		return
	}
	c.cur.Prefetches++
	c.miss(NoPC, la, set, linePrefetched, cycle)
}

// firePrefetch runs the attached prefetcher and issues its suggestions.
func (c *Cache) firePrefetch(pc, addr uint64, hit bool, cycle uint64) {
	if c.pf == nil {
		return
	}
	for _, target := range c.pf.OnAccess(pc, addr, hit) {
		c.Prefetch(target, cycle)
	}
}

// mshrFind returns the index of la's entry in the MSHR file — live or
// completed but not yet collected — or -1.
func (c *Cache) mshrFind(la uint64) int {
	for j := range c.mshr {
		if c.mshr[j].la == la {
			return j
		}
	}
	return -1
}

// mshrInsert records a new miss, replacing the line's completed entry if
// one is still in the file, so a line never holds two entries.
func (c *Cache) mshrInsert(e mshrEntry) {
	if j := c.mshrFind(e.la); j >= 0 {
		c.mshr[j] = e
		return
	}
	c.mshr = append(c.mshr, e)
}

// mshrRemove frees entry j by moving the last entry into its place.
func (c *Cache) mshrRemove(j int) {
	last := len(c.mshr) - 1
	c.mshr[j] = c.mshr[last]
	c.mshr = c.mshr[:last]
}

// mshrAdmit returns the cycle at which a new miss may start, delaying it
// if all MSHRs are occupied. Completed entries leave the file here and
// only here, and only once it is full: a shared level is not called in
// time order (it sees start+latency from several L1s, cores and
// prefetches), so an entry completed as of this call can still be in
// flight for a later call at an earlier cycle, which must merge with it.
// Expiring entries any earlier would change which secondary misses merge.
func (c *Cache) mshrAdmit(cycle uint64) uint64 {
	if len(c.mshr) < c.cfg.MSHRs {
		return cycle
	}
	earliest, at := ^uint64(0), -1
	for j := 0; j < len(c.mshr); {
		done := c.mshr[j].done
		if done <= cycle {
			c.mshrRemove(j) // moves an unvisited entry into j
			continue
		}
		if done < earliest {
			earliest, at = done, j
		}
		j++
	}
	if len(c.mshr) < c.cfg.MSHRs {
		return cycle
	}
	c.cur.MSHRStalls += earliest - cycle
	// Free the earliest-completing entry (the first such in file order): it
	// will have completed by then.
	c.mshrRemove(at)
	return earliest
}

// fill installs tag (a line address with its flag bits) over the victim of
// set, writing a dirty victim back first.
func (c *Cache) fill(set int, tag, readyAt uint64, depth int8, cycle uint64) {
	v := c.victim(set)
	if old := c.tags[v]; old&(lineValid|lineDirty) == lineValid|lineDirty {
		c.cur.Writebacks++
		c.next.Access(old&^lineFlags, true, cycle)
	}
	c.install(v, tag, readyAt, depth)
}

// MSHROccupancy returns the number of MSHR entries still tracking an
// in-flight miss at the given cycle. Completed entries stay in the file
// until mshrAdmit collects them, so they are excluded here rather than
// trusting len(c.mshr).
func (c *Cache) MSHROccupancy(cycle uint64) int {
	n := 0
	for j := range c.mshr {
		if c.mshr[j].done > cycle {
			n++
		}
	}
	return n
}

// Warm touches the line holding addr without any timing or statistics:
// a hit refreshes LRU (and dirtiness on a write), a miss installs the
// line ready-at-cycle-0 over the victim fill would choose, dropping any
// dirty victim silently (tags only — data lives in emu.Memory). It reports
// whether the line was already resident so hierarchy warming can recurse
// into the next level only on a miss. Used by the sampled-simulation
// functional-warming phase, which precedes the measured window.
func (c *Cache) Warm(addr uint64, write bool) bool {
	la, set := c.locate(addr)
	if i := c.find(set, la); i >= 0 {
		c.tags[i] |= flagIf(write, lineDirty)
		c.touch(i)
		return true
	}
	c.install(c.victim(set), la|lineValid|flagIf(write, lineDirty), 0, 0)
	return false
}

// WarmPrefetch is the warming counterpart of Prefetch: it installs addr's
// line if absent (same victim choice as fill) and reports whether it was
// already present. Unlike Warm it does not promote a present line,
// mirroring Prefetch's early return on a duplicate suggestion.
func (c *Cache) WarmPrefetch(addr uint64) bool {
	la, set := c.locate(addr)
	if c.find(set, la) >= 0 {
		return true
	}
	c.install(c.victim(set), la|lineValid, 0, 0)
	return false
}

// CloneState returns a copy of this level's warmed tag/LRU state wired in
// front of next, with fresh (empty) MSHRs, no prefetcher, no miss
// observer, and zeroed statistics. Checkpoint restore clones the warmed
// template once per detailed window so configs sharing a checkpoint never
// see each other's mutations.
func (c *Cache) CloneState(next Backend) *Cache {
	cl := &Cache{
		cfg: c.cfg, sets: c.sets, lineBits: c.lineBits, lruClock: c.lruClock, next: next,
		tags: slices.Clone(c.tags), lru: slices.Clone(c.lru), readyAt: slices.Clone(c.readyAt), depth: slices.Clone(c.depth),
		hint: make([]uint16, c.sets),
		mshr: make([]mshrEntry, 0, c.cfg.MSHRs),
	}
	cl.cur = &cl.stats
	return cl
}

// MarkDirty sets the dirty bit on the resident line holding addr, if
// any, without touching LRU, statistics or timing. A store merging into an
// in-flight miss uses it, and co-scheduled warming uses it to deliver a
// store's dirtiness to this level when a higher level absorbed the store
// itself (see Hierarchy.WarmDataShared).
func (c *Cache) MarkDirty(addr uint64) {
	la, set := c.locate(addr)
	if i := c.find(set, la); i >= 0 {
		c.tags[i] |= lineDirty
	}
}

// Invalidate drops every resident line and resets the LRU clock,
// leaving the level as cold as a fresh build (test hook: the sampling
// equivalence tests cool one level of a warmed checkpoint to prove the
// tolerance check would catch missing warm-up).
func (c *Cache) Invalidate() {
	clear(c.tags)
	clear(c.lru)
	clear(c.readyAt)
	clear(c.depth)
	clear(c.hint)
	c.lruClock = 0
}

// Contains reports whether the line holding addr is resident (test hook).
func (c *Cache) Contains(addr uint64) bool {
	la, set := c.locate(addr)
	return c.find(set, la) >= 0
}
