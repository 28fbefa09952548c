package prefetch

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/codec"
)

// refStride, refStream and refGHB are the map-backed tables as they were
// before PR 28, verbatim but for one thing: where the first two deleted
// "one arbitrary entry" (the first key Go's map iteration happened to
// yield), they now delete the key a victim callback names. They are the
// oracle for the array tables: with the callback answering true LRU from
// bookkeeping of the test's own, both must make the same suggestions.

type refStride struct {
	table    map[uint64]*strideEntry
	cap      int
	Distance int
	victim   func() uint64

	out [1]uint64
}

func (p *refStride) OnAccess(pc, addr uint64, _ bool) []uint64 {
	e := p.table[pc]
	if e == nil {
		if len(p.table) >= p.cap {
			delete(p.table, p.victim())
		}
		p.table[pc] = &strideEntry{lastAddr: addr}
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf--
		if e.conf <= 0 {
			e.stride = stride
			e.conf = 1
		}
	}
	e.lastAddr = addr
	if e.conf >= 2 && e.stride != 0 {
		p.out[0] = uint64(int64(addr) + e.stride*int64(p.Distance))
		return p.out[:]
	}
	return nil
}

type refStream struct {
	regions map[uint64]*streamEntry
	cap     int
	Degree  int
	victim  func() uint64

	out []uint64
}

func (p *refStream) OnAccess(_, addr uint64, _ bool) []uint64 {
	region := addr >> 12
	line := int64(addr / lineSize)
	e := p.regions[region]
	if e == nil {
		if len(p.regions) >= p.cap {
			delete(p.regions, p.victim())
		}
		p.regions[region] = &streamEntry{lastLine: line}
		return nil
	}
	delta := line - e.lastLine
	e.lastLine = line
	var dir int64
	switch {
	case delta > 0 && delta <= 4:
		dir = 1
	case delta < 0 && delta >= -4:
		dir = -1
	default:
		e.count = 0
		e.dir = 0
		return nil
	}
	if dir == e.dir {
		if e.count < 4 {
			e.count++
		}
	} else {
		e.dir = dir
		e.count = 1
	}
	if e.count < 2 {
		return nil
	}
	p.out = p.out[:0]
	for i := 1; i <= p.Degree; i++ {
		next := line + dir*int64(i)
		if next >= 0 {
			p.out = append(p.out, uint64(next)*lineSize)
		}
	}
	return p.out
}

// refGHB never evicted: its index grew by a PC a new missing PC.
type refGHB struct {
	buf   []ghbEntry
	head  int
	size  int
	index map[uint64]int
	Depth int

	deltas []int64
	out    []uint64
}

func newRefGHB(size int) *refGHB {
	g := &refGHB{buf: make([]ghbEntry, size), size: size, index: make(map[uint64]int), Depth: 2}
	for i := range g.buf {
		g.buf[i].prev = -1
		g.buf[i].id = -1
	}
	return g
}

func (g *refGHB) OnAccess(pc, addr uint64, hit bool) []uint64 {
	if hit {
		return nil
	}
	line := addr / lineSize

	prev, havePrev := g.index[pc]
	id := g.head
	e := ghbEntry{addr: line, prev: -1, id: id}
	if havePrev && g.buf[prev%g.size].id == prev {
		e.prev = prev
	}
	g.buf[id%g.size] = e
	g.index[pc] = id
	g.head++

	deltas := g.deltas[:0]
	cur := id
	for len(deltas) < 8 {
		ce := g.buf[cur%g.size]
		if ce.id != cur || ce.prev < 0 {
			break
		}
		pe := g.buf[ce.prev%g.size]
		if pe.id != ce.prev {
			break
		}
		deltas = append(deltas, int64(ce.addr)-int64(pe.addr))
		cur = ce.prev
	}
	g.deltas = deltas
	if len(deltas) < 3 {
		return nil
	}
	d1, d0 := deltas[1], deltas[0]
	for i := 2; i+1 < len(deltas); i++ {
		if deltas[i] == d0 && deltas[i+1] == d1 {
			out := g.out[:0]
			next := int64(line)
			for j := i - 1; j >= 0 && len(out) < g.Depth; j-- {
				next += deltas[j]
				if next >= 0 {
					out = append(out, uint64(next)*lineSize)
				}
			}
			g.out = out
			return out
		}
	}
	return nil
}

// lruBook is the test's own record of when each key was last touched: what
// the reference tables' victim callback answers from.
type lruBook struct {
	last map[uint64]int
	step int
}

func (b *lruBook) touch(key uint64) {
	b.step++
	b.last[key] = b.step
}

// victim forgets and returns the key touched longest ago.
func (b *lruBook) victim() uint64 {
	var oldest uint64
	at := b.step + 1
	for k, s := range b.last {
		if s < at {
			oldest, at = k, s
		}
	}
	delete(b.last, oldest)
	return oldest
}

type access struct {
	pc, addr uint64
	hit      bool
}

// accessStreams are the four shapes the tables see, each over more keys
// than the largest capacity tested so that every table overflows: one
// ascending walk, interleaved constant strides a PC, random keys with the
// recent ones revisited (where the choice of victim shows), and the same
// with most accesses unattributed, as a store's are.
var accessStreams = map[string]func(rng *rand.Rand, n int) []access{
	"sequential": func(rng *rand.Rand, n int) []access {
		out := make([]access, n)
		addr := uint64(0x10000)
		for i := range out {
			out[i] = access{pc: 0x400000 + uint64(i%7)*4, addr: addr, hit: i%3 != 0}
			addr += uint64(8 << rng.Intn(5))
		}
		return out
	},
	"strided": func(rng *rand.Rand, n int) []access {
		const pcs = 600
		next, stride := make([]uint64, pcs), make([]uint64, pcs)
		for i := range next {
			next[i], stride[i] = uint64(rng.Intn(1<<30)), uint64(64*(1+rng.Intn(80)))
		}
		out := make([]access, n)
		for i := range out {
			// A window of PCs that drifts, so old ones fall out of any table.
			p := (i/40 + rng.Intn(1+i%300)) % pcs
			out[i] = access{pc: 0x400000 + uint64(p)*4, addr: next[p], hit: rng.Intn(2) == 0}
			next[p] += stride[p]
		}
		return out
	},
	"random_overflow": func(rng *rand.Rand, n int) []access { return randomAccesses(rng, n, 0) },
	"nopc_heavy":      func(rng *rand.Rand, n int) []access { return randomAccesses(rng, n, 70) },
}

func randomAccesses(rng *rand.Rand, n, noPCPercent int) []access {
	out := make([]access, n)
	var recent []access
	for i := range out {
		a := access{pc: 0x400000 + uint64(rng.Intn(1024))*4, addr: uint64(rng.Intn(1024))<<12 | uint64(rng.Intn(64))*64, hit: rng.Intn(4) != 0}
		if len(recent) > 0 && rng.Intn(3) != 0 {
			// Back to one of the last few keys, a line or two on.
			a = recent[rng.Intn(len(recent))]
			a.addr += uint64(rng.Intn(3)) * 64
		}
		if rng.Intn(100) < noPCPercent {
			a.pc = cache.NoPC
		}
		out[i] = a
		if recent = append(recent, a); len(recent) > 1+i%300 {
			recent = recent[1:]
		}
	}
	return out
}

func encodeBytes(p Prefetcher) []byte {
	var w codec.Writer
	Encode(&w, p)
	return w.Bytes()
}

// checkHint fails unless tbl's hint for key names key's slot: after a get
// or a put of key the next lookup must be the one probe.
func checkHint[V any](t *testing.T, tbl *table[V], key uint64) {
	t.Helper()
	if s := int(tbl.hint[hintOf(key)]); s >= len(tbl.keys) || tbl.keys[s] != key {
		t.Fatalf("hint for key %#x names slot %d, which does not hold it", key, s)
	}
}

// runAgainst drives a prefetcher fresh builds and want with one access
// stream and requires equal suggestions at every step. A third of the way
// in got is replaced by its clone, two thirds in by another fresh one its
// encoding is decoded into (which must re-encode to the same bytes), so
// both carry the LRU order over. after runs behind every access of got (the
// hint check).
func runAgainst(t *testing.T, accs []access, fresh func() Prefetcher, want Prefetcher, touch func(access), after func(Prefetcher, access)) {
	t.Helper()
	got := fresh()
	for i, a := range accs {
		switch i {
		case len(accs) / 3:
			got = Clone(got)
		case 2 * len(accs) / 3:
			enc := encodeBytes(got)
			if again := encodeBytes(got); !bytes.Equal(enc, again) {
				t.Fatalf("step %d: encoding one state twice gave different bytes", i)
			}
			dec := fresh()
			if err := decodeState(codec.NewReader(enc), dec); err != nil {
				t.Fatalf("step %d: decode: %v", i, err)
			}
			if re := encodeBytes(dec); !bytes.Equal(enc, re) {
				t.Fatalf("step %d: the decoded state re-encodes differently", i)
			}
			got = dec
		}
		w := want.OnAccess(a.pc, a.addr, a.hit)
		touch(a)
		g := got.OnAccess(a.pc, a.addr, a.hit)
		if !slices.Equal(g, w) {
			t.Fatalf("step %d (pc %#x addr %#x hit %v): suggests %#x, the map version with LRU eviction %#x", i, a.pc, a.addr, a.hit, g, w)
		}
		after(got, a)
	}
}

// TestTablesMatchMapOracle is the proof that the array tables are the map
// tables with the victim defined. PR 28's five mutations each fail it: in
// table.go, victim = newest, no stamp on a hit, hint believed without the
// key compare (with or without checkHint) and hint not refreshed by put (so
// left naming the evicted key's slot; checkHint only — get's key compare
// makes a stale hint a slower lookup, never a wrong one); in persist.go, LRU
// order written newest first.
func TestTablesMatchMapOracle(t *testing.T) {
	for name, gen := range accessStreams {
		for _, capacity := range []int{1, 2, 8, 64, 256} {
			accs := gen(rand.New(rand.NewSource(int64(capacity))), 6000)
			t.Run(fmt.Sprintf("stride/%s/cap=%d", name, capacity), func(t *testing.T) {
				book := &lruBook{last: map[uint64]int{}}
				want := &refStride{table: map[uint64]*strideEntry{}, cap: capacity, Distance: 4, victim: book.victim}
				runAgainst(t, accs, func() Prefetcher { return &Stride{table: table[strideEntry]{cap: capacity}} }, want,
					func(a access) { book.touch(a.pc) },
					func(p Prefetcher, a access) { checkHint(t, &p.(*Stride).table, a.pc) })
			})
			t.Run(fmt.Sprintf("stream/%s/cap=%d", name, capacity), func(t *testing.T) {
				book := &lruBook{last: map[uint64]int{}}
				want := &refStream{regions: map[uint64]*streamEntry{}, cap: capacity, Degree: 2, victim: book.victim}
				runAgainst(t, accs, func() Prefetcher { return &Stream{regions: table[streamEntry]{cap: capacity}} }, want,
					func(a access) { book.touch(a.addr >> 12) },
					func(p Prefetcher, a access) { checkHint(t, &p.(*Stream).regions, a.addr>>12) })
			})
			// GHB's index bounded at size PCs against the index that never
			// evicted: the PC LRU drops is one whose position the buffer has
			// overwritten, which the unbounded index would have found stale.
			t.Run(fmt.Sprintf("ghb/%s/size=%d", name, capacity), func(t *testing.T) {
				runAgainst(t, accs, func() Prefetcher { return newGHB(capacity) }, newRefGHB(capacity), func(access) {}, func(p Prefetcher, a access) {
					if !a.hit {
						checkHint(t, &p.(*GHB).index, a.pc)
					}
				})
			})
		}
	}
}
