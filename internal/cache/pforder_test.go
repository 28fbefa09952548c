package cache

import (
	"slices"
	"testing"

	"crisp/internal/prefetch"
)

// nextCall is one request a level made of the level below it.
type nextCall struct{ pc, la uint64 }

// callLog is a fixed-latency next level that records every request in
// call order.
type callLog struct{ calls []nextCall }

func (l *callLog) Access(addr uint64, _ bool, cycle uint64) uint64 {
	done, _ := l.AccessPC(NoPC, addr, false, cycle)
	return done
}

func (l *callLog) AccessPC(pc, addr uint64, _ bool, cycle uint64) (uint64, int8) {
	l.calls = append(l.calls, nextCall{pc, addr})
	return cycle + 100, 1
}

// loneParts suggests what a lone BOP and a lone 64-region Stream suggest,
// BOP's first, and keeps the two lists of the last access.
type loneParts struct {
	bop    *prefetch.BOP
	stream *prefetch.Stream
	b, s   []uint64
}

func (p *loneParts) OnAccess(pc, addr uint64, hit bool) []uint64 {
	p.b = append(p.b[:0], p.bop.OnAccess(pc, addr, hit)...)
	p.s = append(p.s[:0], p.stream.OnAccess(pc, addr, hit)...)
	return append(slices.Clone(p.b), p.s...)
}

// TestBOPStreamIssueOrder: an L1D under prefetch.NewBOPStream() sends its
// prefetch misses to the next level as a lone BOP's suggestions, then a
// lone Stream's, skipping lines present or in flight. MSHR admission and
// LRU order follow that order, and no golden notices if it flips: the
// pair's cache and a cache fed the lone parts' suggestions must make the
// same requests, access by access.
func TestBOPStreamIssueOrder(t *testing.T) {
	cfg := DefaultHierConfig().L1D
	pairNext, refNext := &callLog{}, &callLog{}
	pair, ref := New(cfg, pairNext), New(cfg, refNext)
	pair.SetPrefetcher(prefetch.NewBOPStream())
	parts := &loneParts{bop: prefetch.NewBOP(), stream: prefetch.NewStream()}
	ref.SetPrefetcher(parts)

	both := 0
	for i := 0; i < 4000; i++ {
		addr, cycle := uint64(0x100000+i*192), uint64(i*10)
		p0, r0 := len(pairNext.calls), len(refNext.calls)
		pair.AccessPC(1, addr, false, cycle)
		ref.AccessPC(1, addr, false, cycle)
		got, want := pairNext.calls[p0:], refNext.calls[r0:]
		if !slices.Equal(got, want) {
			t.Fatalf("access %d: the pair's L1D requested %#x, BOP then Stream %#x", i, got, want)
		}
		// Count accesses that issue a line only BOP suggested and a line
		// only Stream suggested: on those the order is observable.
		var fromB, fromS bool
		for _, c := range want {
			if c.pc != NoPC {
				continue
			}
			inB := slices.ContainsFunc(parts.b, func(a uint64) bool { la, _ := ref.locate(a); return la == c.la })
			inS := slices.ContainsFunc(parts.s, func(a uint64) bool { la, _ := ref.locate(a); return la == c.la })
			fromB = fromB || inB && !inS
			fromS = fromS || inS && !inB
		}
		if fromB && fromS {
			both++
		}
	}
	if both == 0 {
		t.Fatal("no access issued prefetches from both parts: the order is untested")
	}
	t.Logf("%d of 4000 accesses issued prefetches from both parts", both)
}
