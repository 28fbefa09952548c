package cache

import (
	"slices"

	"crisp/internal/dram"
)

// Template is a warmed SharedHierarchy reduced to what warming writes: per
// level, every way's tag word and the line's LRU rank within its set, ten
// bytes a line where the live level keeps 25. A checkpoint keeps one per
// point (and prefetcher variant) and restores a fresh hierarchy from it
// for every detailed window; the template itself is only read.
//
// A rank is exact. LRU decisions read only the order of stamps within one
// set — a victim is the first invalid way, else the lowest stamp — and
// every touch stamps past the clock. So a level whose stamps are its ranks
// and whose clock is the way count finds the hits, picks the victims and
// returns the results of the level it was frozen from. Warming leaves no
// fill time, fill depth or miss in flight, so a template keeps none.
type Template struct {
	cfg HierConfig
	l1s []Lines // per view: its L1I, then its L1D
	// LLC is the shared level; exported for the tests that cool a point's
	// LLC to show a window notices.
	LLC Lines
}

// Lines is one level of a Template. The ranks of a set are 1..ways, in the
// order of the ways' stamps, invalid ways first and ties to the lower way.
type Lines struct {
	ways  int
	tags  []uint64 // line address | lineFlags bits, as Cache.tags
	ranks []uint16 // uint16 holds every way count checkDecodable admits
}

// Freeze returns the template of sh's warmed lines: every view's L1I and
// L1D and the shared LLC.
func (sh *SharedHierarchy) Freeze() *Template {
	t := &Template{cfg: sh.Views[0].cfg, l1s: make([]Lines, 0, 2*len(sh.Views))}
	for _, v := range sh.Views {
		t.l1s = append(t.l1s, freeze(v.L1I), freeze(v.L1D))
	}
	t.LLC = freeze(sh.LLC)
	return t
}

// freeze ranks each of c's sets by an insertion sort of its ways on their
// stamps, an invalid way's taken as zero.
func freeze(c *Cache) Lines {
	w := c.cfg.Ways
	l := Lines{ways: w, tags: slices.Clone(c.tags), ranks: make([]uint16, len(c.tags))}
	keys, ways := make([]uint64, w), make([]uint16, w)
	for base := 0; base < len(c.tags); base += w {
		for j := 0; j < w; j++ {
			k := c.lru[base+j]
			if c.tags[base+j]&lineValid == 0 {
				k = 0
			}
			p := j
			for ; p > 0 && keys[p-1] > k; p-- {
				keys[p], ways[p] = keys[p-1], ways[p-1]
			}
			keys[p], ways[p] = k, uint16(j)
		}
		for r, j := range ways {
			l.ranks[base+int(j)] = uint16(r + 1)
		}
	}
	return l
}

// Restore returns a fresh hierarchy holding the template's lines over
// fresh timing state: empty MSHRs, a fresh DRAM, no prefetchers or miss
// observers, zeroed statistics.
func (t *Template) Restore() *SharedHierarchy {
	mem := dram.New(t.cfg.DRAM)
	sh := share(t.cfg, t.LLC.restore(t.cfg.LLC, mem), mem, len(t.l1s)/2)
	for i, v := range sh.Views {
		v.L1I, v.L1D = t.l1s[2*i].restore(t.cfg.L1I, sh.LLC), t.l1s[2*i+1].restore(t.cfg.L1D, sh.LLC)
	}
	return sh
}

// restore returns a new level of geometry cfg in front of next holding l's
// lines: the ranks become the stamps, and the way count the clock.
func (l *Lines) restore(cfg Config, next Backend) *Cache {
	c := newOver(cfg, next, slices.Clone(l.tags))
	lru := c.lru[:len(l.ranks)]
	for i, r := range l.ranks {
		lru[i] = uint64(r)
	}
	c.lruClock = uint64(l.ways)
	return c
}

// Invalidate drops every line, leaving the level as cold as a fresh
// build's (test hook: the sampling equivalence tests cool a point's LLC to
// show that their tolerance would catch missing warm-up).
func (l *Lines) Invalidate() {
	clear(l.tags)
	for i := range l.ranks {
		l.ranks[i] = uint16(i%l.ways + 1)
	}
}
