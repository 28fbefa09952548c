package prefetch

// BOP implements best-offset prefetching (Michaud, HPCA 2016), the default
// data prefetcher of the paper's simulated system. BOP learns the single
// line offset D that best predicts future accesses: for each access to
// line X it tests whether X-D was recently accessed (recorded in the
// recent-requests table); offsets accumulate scores over a learning round,
// and the best-scoring offset becomes the active prefetch offset.
type BOP struct {
	rr      []uint64 // recent-requests table of line addresses (direct mapped)
	rrMask  uint64
	offsets []int64
	scores  []int
	testIdx int
	round   int

	active int64 // current best offset in lines (0 = prefetch off)

	// Tunables (defaults per the BOP paper).
	ScoreMax int // stop a round early when a score reaches this
	RoundMax int // number of test iterations per learning round
	BadScore int // below this the prefetcher turns off

	out [1]uint64
}

// bopOffsets is the candidate offset list: positive and negative line
// offsets with small prime factors, per the BOP design.
var bopOffsets = []int64{
	1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32,
	-1, -2, -3, -4, -6, -8,
}

// NewBOP returns a best-offset prefetcher with a 256-entry recent-requests
// table.
func NewBOP() *BOP {
	b := &BOP{
		rr:       make([]uint64, 256),
		rrMask:   255,
		offsets:  bopOffsets,
		scores:   make([]int, len(bopOffsets)),
		active:   1,
		ScoreMax: 31,
		RoundMax: 100,
		BadScore: 1,
	}
	return b
}

func (b *BOP) clone() *BOP {
	c := *b
	c.rr = append([]uint64(nil), b.rr...)
	c.scores = append([]int(nil), b.scores...)
	return &c
}

func (b *BOP) rrInsert(line uint64) { b.rr[line&b.rrMask] = line }

func (b *BOP) rrHit(line uint64) bool { return b.rr[line&b.rrMask] == line }

// OnAccess implements the prefetcher interface. Training uses misses and
// prefetched-line first-hits; per the paper, the recent-requests table
// records the base address of completed fills (approximated here by
// recording X for every miss).
func (b *BOP) OnAccess(_, addr uint64, hit bool) []uint64 {
	line := addr / lineSize

	if !hit {
		b.train(line)
		b.rrInsert(line)
	}

	if b.active == 0 {
		return nil
	}
	target := int64(line) + b.active
	if target < 0 {
		return nil
	}
	b.out[0] = uint64(target) * lineSize
	return b.out[:]
}

func (b *BOP) train(line uint64) {
	off := b.offsets[b.testIdx]
	prev := int64(line) - off
	if prev >= 0 && b.rrHit(uint64(prev)) {
		b.scores[b.testIdx]++
		if b.scores[b.testIdx] >= b.ScoreMax {
			b.endRound()
			return
		}
	}
	b.testIdx++
	if b.testIdx == len(b.offsets) {
		b.testIdx = 0
		b.round++
		if b.round >= b.RoundMax {
			b.endRound()
		}
	}
}

func (b *BOP) endRound() {
	best, bestScore := int64(0), -1
	for i, s := range b.scores {
		if s > bestScore {
			best, bestScore = b.offsets[i], s
		}
	}
	if bestScore <= b.BadScore {
		b.active = 0 // pattern too irregular: disable prefetching
	} else {
		b.active = best
	}
	for i := range b.scores {
		b.scores[i] = 0
	}
	b.testIdx = 0
	b.round = 0
}

// ActiveOffset returns the currently selected offset in lines (0 when
// prefetching is disabled), exposed for tests and diagnostics.
func (b *BOP) ActiveOffset() int64 { return b.active }

// GHB implements a global-history-buffer delta-correlation prefetcher
// (Nesbit & Smith, G/DC): a FIFO of recent miss addresses per PC is used
// to find the last occurrence of the current delta pair and replay the
// deltas that followed it.
type GHB struct {
	buf  []ghbEntry
	head int
	size int
	// index is pc -> most recent buffer position. size PCs are enough: the
	// least recently used of them names a position buf has since overwritten.
	index table[int]
	Depth int // deltas to replay per prediction

	deltas []int64
	out    []uint64
}

type ghbEntry struct {
	addr uint64
	prev int // previous entry for the same PC, -1 if none
	id   int // monotonically increasing; detects overwritten links
}

// NewGHB returns a GHB prefetcher with the given buffer size.
func NewGHB(size int) *GHB {
	g := &GHB{buf: make([]ghbEntry, size), size: size, index: table[int]{cap: size}, Depth: 2}
	for i := range g.buf {
		g.buf[i].prev = -1
		g.buf[i].id = -1
	}
	return g
}

// OnAccess implements the prefetcher interface: it trains on misses only.
func (g *GHB) OnAccess(pc, addr uint64, hit bool) []uint64 {
	if hit {
		return nil
	}
	line := addr / lineSize

	// Link the new entry into the per-PC chain.
	id := g.head
	e := ghbEntry{addr: line, prev: -1, id: id}
	if prev := g.index.get(pc); prev == nil {
		g.index.put(pc, id)
	} else {
		if g.buf[*prev%g.size].id == *prev {
			e.prev = *prev
		}
		*prev = id
	}
	g.buf[id%g.size] = e
	g.head++

	// Walk the chain to collect recent per-PC deltas (newest first).
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
	// Delta correlation: find the most recent earlier occurrence of the
	// pair (deltas[1], deltas[0]) and replay what followed.
	d1, d0 := deltas[1], deltas[0]
	for i := 2; i+1 < len(deltas); i++ {
		if deltas[i] == d0 && deltas[i+1] == d1 {
			// deltas[i-1], deltas[i-2], ... followed the pair historically.
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
