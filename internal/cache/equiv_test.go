package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"crisp/internal/codec"
)

// level is the surface the differential test drives on both
// implementations.
type level interface {
	pcBackend
	Prefetch(addr, cycle uint64)
	Warm(addr uint64, write bool) bool
	WarmPrefetch(addr uint64) bool
	MarkDirty(addr uint64)
	Invalidate()
	MSHROccupancy(cycle uint64) int
	Contains(addr uint64) bool
	Stats() Stats
	RequesterStats(i int) Stats
	SetRequesters(n int)
	SetRequester(i int)
	SetRequesterMissObserver(i int, f func(pc, lineAddr uint64))
	SetMissObserver(f func(pc, lineAddr uint64))
	SetPrefetcher(p Prefetcher)
	EncodeState(w *codec.Writer)
}

// serialMem is a backend whose completion times are all distinct (each is
// at least one cycle after the last it handed out), and which logs every
// request. Distinct completions mean no two MSHR entries of the level above
// ever share a done cycle, so the one step of the reference that depends on
// map order — which of several entries with done == earliest is freed —
// never has a choice to make; TestMatchesReferenceCache checks that claim
// on the reference's map as it runs. It answers as a deeper cache level
// would (pcBackend), serving each line from a depth of its own, so that the
// fill depth a level records and reports varies from line to line.
type serialMem struct {
	last uint64
	log  []memReq
}

type memReq struct {
	pc, addr uint64
	write    bool
	cycle    uint64
}

// Access receives the write-backs, whose completion the level ignores.
func (m *serialMem) Access(addr uint64, write bool, cycle uint64) uint64 {
	m.log = append(m.log, memReq{NoPC, addr, write, cycle})
	return cycle
}

func (m *serialMem) AccessPC(pc, addr uint64, write bool, cycle uint64) (uint64, int8) {
	m.log = append(m.log, memReq{pc, addr, write, cycle})
	done := cycle + 120 + addr>>6%64
	if done <= m.last {
		done = m.last + 1
	}
	m.last = done
	return done, int8(addr >> 6 % 3)
}

// strided suggests the deg lines at multiples of stride past every access,
// from its own scratch slice as the Prefetcher contract allows. A stride of
// one line is a next-line prefetcher; a stride of 1 KiB (the whole level)
// lands every suggestion in the set of the access that triggered it, so a
// prefetch can evict the very line the access just hit.
type strided struct {
	deg    int
	stride uint64
	buf    []uint64
}

func (p *strided) OnAccess(_, addr uint64, _ bool) []uint64 {
	p.buf = p.buf[:0]
	for i := 1; i <= p.deg; i++ {
		p.buf = append(p.buf, addr+uint64(i)*p.stride)
	}
	return p.buf
}

type missEvent struct {
	req      int
	pc, line uint64
}

// equivCase is one geometry of the differential test.
type equivCase struct {
	sizeKiB     int // 0 = 1 KiB, 16 lines
	ways, mshrs int
	requesters  int    // 0 = private level
	prefetch    int    // prefetcher degree, 0 = none
	pfStride    uint64 // bytes between its suggestions
}

func (ec equivCase) String() string {
	s := fmt.Sprintf("%dway_%dmshr_%dreq_pf%dx%d", ec.ways, ec.mshrs, ec.requesters, ec.prefetch, ec.pfStride)
	if ec.sizeKiB != 0 {
		s = fmt.Sprintf("%dKiB_%s", ec.sizeKiB, s)
	}
	return s
}

func (ec equivCase) config() Config {
	return Config{Name: "t", SizeKiB: max(ec.sizeKiB, 1), Ways: ec.ways, Latency: 3, MSHRs: ec.mshrs}
}

// pair drives one Cache and one refCache with the same calls.
type pair struct {
	t          *testing.T
	ec         equivCase
	got, want  level
	ref        *refCache
	gotMem     *serialMem
	wantMem    *serialMem
	gotMisses  []missEvent
	wantMisses []missEvent
}

func newPair(t *testing.T, ec equivCase) *pair {
	p := &pair{t: t, ec: ec, gotMem: &serialMem{}, wantMem: &serialMem{}}
	p.adopt(New(ec.config(), p.gotMem), newRefCache(ec.config(), p.wantMem))
	return p
}

// adopt makes got and ref, two levels with nothing attached yet, the pair
// under test: miss observers, requesters and prefetcher as the case has
// them, and no hint on a level nobody has looked anything up in.
func (p *pair) adopt(got *Cache, ref *refCache) {
	p.got, p.want, p.ref = got, ref, ref
	p.hintsZero("a new, cloned or decoded level")
	for _, side := range []struct {
		l   level
		log *[]missEvent
	}{{p.got, &p.gotMisses}, {p.want, &p.wantMisses}} {
		log := side.log
		if p.ec.requesters == 0 {
			side.l.SetMissObserver(func(pc, la uint64) { *log = append(*log, missEvent{-1, pc, la}) })
		} else {
			side.l.SetRequesters(p.ec.requesters)
			for r := 0; r < p.ec.requesters; r++ {
				side.l.SetRequesterMissObserver(r, func(pc, la uint64) { *log = append(*log, missEvent{r, pc, la}) })
			}
		}
		if p.ec.prefetch > 0 {
			side.l.SetPrefetcher(&strided{deg: p.ec.prefetch, stride: p.ec.pfStride})
		}
	}
}

// hintsZero is the one look inside: a hint is a guess about lines, so a
// level whose lines were just made, copied, overwritten or dropped starts
// from none. A stale one is harmless while every set holds a line once,
// which bytes from disk need not (FuzzDecodeHierarchy).
func (p *pair) hintsZero(when string) {
	p.t.Helper()
	for set, h := range p.got.(*Cache).hint {
		if h != 0 {
			p.t.Fatalf("%s has hint %d on set %d", when, h, set)
		}
	}
}

// compareState checks everything observable without a call that mutates:
// statistics, residency of every pool line, occupancy, encoded bytes and
// the traffic and miss callbacks so far.
func (p *pair) compareState(step int, pool []uint64, cycle uint64) {
	p.t.Helper()
	ec := p.ec
	if g, w := p.got.Stats(), p.want.Stats(); g != w {
		p.t.Fatalf("step %d: Stats = %+v, reference %+v", step, g, w)
	}
	for r := 0; r < ec.requesters; r++ {
		if g, w := p.got.RequesterStats(r), p.want.RequesterStats(r); g != w {
			p.t.Fatalf("step %d: RequesterStats(%d) = %+v, reference %+v", step, r, g, w)
		}
	}
	for _, a := range pool {
		if g, w := p.got.Contains(a), p.want.Contains(a); g != w {
			p.t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, a, g, w)
		}
	}
	if g, w := p.got.MSHROccupancy(cycle), p.want.MSHROccupancy(cycle); g != w {
		p.t.Fatalf("step %d: MSHROccupancy(%d) = %d, reference %d", step, cycle, g, w)
	}
	// Line state by the version-1 codec's account, and the dense form
	// carrying it through a round trip unchanged.
	c := p.got.(*Cache)
	state := refEncode(c)
	var ww, dense codec.Writer
	p.want.EncodeState(&ww)
	if !bytes.Equal(state, ww.Bytes()) {
		p.t.Fatalf("step %d: line state differs from the reference's", step)
	}
	c.EncodeState(&dense)
	back := New(c.cfg, nil)
	if err := back.DecodeState(codec.NewReader(dense.Bytes())); err != nil {
		p.t.Fatalf("step %d: DecodeState of EncodeState: %v", step, err)
	}
	if !bytes.Equal(refEncode(back), state) {
		p.t.Fatalf("step %d: EncodeState then DecodeState changed the line state", step)
	}
	if len(p.gotMem.log) != len(p.wantMem.log) {
		p.t.Fatalf("step %d: %d backend requests, reference %d", step, len(p.gotMem.log), len(p.wantMem.log))
	}
	for i, g := range p.gotMem.log {
		if g != p.wantMem.log[i] {
			p.t.Fatalf("step %d: backend request %d = %+v, reference %+v", step, i, g, p.wantMem.log[i])
		}
	}
	if len(p.gotMisses) != len(p.wantMisses) {
		p.t.Fatalf("step %d: %d miss callbacks, reference %d", step, len(p.gotMisses), len(p.wantMisses))
	}
	for i, g := range p.gotMisses {
		if g != p.wantMisses[i] {
			p.t.Fatalf("step %d: miss callback %d = %+v, reference %+v", step, i, g, p.wantMisses[i])
		}
	}
}

// noTies fails if two entries of the reference's MSHR map complete in the
// same cycle: then its choice of which to free would follow map order and
// the comparison would be against one of several legal executions.
func (p *pair) noTies(step int) {
	p.t.Helper()
	seen := make(map[uint64]bool, len(p.ref.mshr))
	for _, e := range p.ref.mshr {
		if seen[e.done] {
			p.t.Fatalf("step %d: two reference MSHR entries complete at %d; serialMem should make that impossible", step, e.done)
		}
		seen[e.done] = true
	}
}

// TestMatchesReferenceCache drives random mixes of every mutating call
// through the packed-array, slice-MSHR Cache and through the AoS, map-MSHR
// reference it replaced, and requires the same answer from every call and
// the same observable state throughout.
//
// Cycles are deliberately not monotonic — a level below several L1s, cores
// and prefetchers is called at start+latency of each, in no time order —
// because that is what makes the MSHR file's laziness observable: an entry
// completed as of one call is still in flight for a later call at an
// earlier cycle. The arrival rate is scaled to the MSHR count so that every
// file size spends the run around full: admissions stall, completed entries
// are collected, and lines miss again while their completed entry is still
// in the file.
func TestMatchesReferenceCache(t *testing.T) {
	var cases []equivCase
	for _, mshrs := range []int{1, 2, 8, 32} {
		for _, reqs := range []int{0, 1, 2, 3, 4} {
			ec := equivCase{ways: 1 + (mshrs+reqs)%4, mshrs: mshrs, requesters: reqs, prefetch: (mshrs + reqs) % 3, pfStride: 64}
			if reqs%2 == 0 {
				ec.pfStride = 1024
			}
			cases = append(cases, ec)
		}
	}
	// What the set index and the per-set hint can get wrong: the LLC's 20
	// ways over set counts no mask indexes (3, 5); a power of two of sets
	// under requesters 1<<40 apart; one set; and one set of more ways than a
	// byte counts, all of which the decoder admits.
	cases = append(cases,
		equivCase{sizeKiB: 4, ways: 20, mshrs: 8, requesters: 2, prefetch: 1, pfStride: 64},
		equivCase{sizeKiB: 7, ways: 20, mshrs: 8, prefetch: 2, pfStride: 7 * 1024},
		equivCase{sizeKiB: 8, ways: 8, mshrs: 8, requesters: 3, prefetch: 1, pfStride: 64},
		equivCase{ways: 16, mshrs: 2, requesters: 2, prefetch: 1, pfStride: 1024},
		equivCase{sizeKiB: 32, ways: 300, mshrs: 8, prefetch: 1, pfStride: 64},
	)
	for _, ec := range cases {
		t.Run(ec.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runEquiv(t, ec, seed)
			}
		})
	}
}

func runEquiv(t *testing.T, ec equivCase, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := newPair(t, ec)

	// A pool of two and a half times the level's lines (40 for the 16 of
	// 1 KiB), per requester, keeps every set contended. Requesters live 1<<40
	// apart, as the views of a SharedHierarchy do.
	nreq := ec.requesters
	if nreq == 0 {
		nreq = 1
	}
	per := len(p.got.(*Cache).tags) * 5 / 2
	var pool []uint64
	for r := 0; r < nreq; r++ {
		for i := 0; i < per; i++ {
			pool = append(pool, uint64(r)*coreAddrStride+uint64(i)*64)
		}
	}

	const steps = 6000
	gap := 2*150/ec.mshrs + 1 // mean inter-arrival about a DRAM latency / MSHRs
	now := uint64(1000)
	for step := 0; step < steps; step++ {
		now += uint64(rng.Intn(gap))
		cycle := now - 400 + uint64(rng.Intn(800)) // not monotonic
		r := rng.Intn(nreq)
		if ec.requesters > 0 {
			p.got.SetRequester(r)
			p.want.SetRequester(r)
		}
		addr := pool[r*per+rng.Intn(per)] + uint64(rng.Intn(64))
		// Three times the stream carries on over lines that were dropped,
		// copied, or written back over themselves from their encoding: the
		// clone starts from no MSHRs and zero statistics on both sides, the
		// decode touches neither.
		switch step {
		case steps / 4:
			p.got.Invalidate()
			p.want.Invalidate()
			p.hintsZero("an invalidated level")
		case steps / 2:
			p.adopt(p.got.(*Cache).CloneState(p.gotMem), p.ref.CloneState(p.wantMem))
		case steps * 3 / 4:
			var w codec.Writer
			p.got.EncodeState(&w)
			if err := p.got.(*Cache).DecodeState(codec.NewReader(w.Bytes())); err != nil {
				t.Fatalf("seed %d step %d: DecodeState of EncodeState: %v", seed, step, err)
			}
			p.hintsZero("a level decoded over")
		}
		switch op := rng.Intn(100); {
		case op < 60:
			pc := uint64(rng.Intn(8))
			if pc == 7 {
				pc = NoPC
			}
			write := rng.Intn(3) == 0
			gd, gdep := p.got.AccessPC(pc, addr, write, cycle)
			wd, wdep := p.want.AccessPC(pc, addr, write, cycle)
			if gd != wd || gdep != wdep {
				t.Fatalf("seed %d step %d: AccessPC(%#x, w=%v, @%d) = (%d, %d), reference (%d, %d)", seed, step, addr, write, cycle, gd, gdep, wd, wdep)
			}
		case op < 75:
			p.got.Prefetch(addr, cycle)
			p.want.Prefetch(addr, cycle)
		case op < 85:
			write := rng.Intn(2) == 0
			if g, w := p.got.Warm(addr, write), p.want.Warm(addr, write); g != w {
				t.Fatalf("seed %d step %d: Warm(%#x) = %v, reference %v", seed, step, addr, g, w)
			}
		case op < 90:
			if g, w := p.got.WarmPrefetch(addr), p.want.WarmPrefetch(addr); g != w {
				t.Fatalf("seed %d step %d: WarmPrefetch(%#x) = %v, reference %v", seed, step, addr, g, w)
			}
		case op < 95:
			p.got.MarkDirty(addr)
			p.want.MarkDirty(addr)
		default:
			at := now - 400 + uint64(rng.Intn(800))
			if g, w := p.got.MSHROccupancy(at), p.want.MSHROccupancy(at); g != w {
				t.Fatalf("seed %d step %d: MSHROccupancy(%d) = %d, reference %d", seed, step, at, g, w)
			}
		}
		p.noTies(step)
		if step%97 == 0 || step == steps-1 {
			p.compareState(step, pool, cycle)
		}
	}

	// The run must have reached the paths whose semantics the reference
	// pins; a mix that never fills the file would pass vacuously.
	s := p.got.Stats()
	if s.MSHRStalls == 0 || s.MergedMisses == 0 || s.Writebacks == 0 || s.Hits == 0 || s.Misses == 0 {
		t.Errorf("seed %d: mix did not cover stalls/merges/writebacks/hits/misses: %+v", seed, s)
	}
	if ec.prefetch > 0 && (s.PrefetchHits == 0 || s.PrefetchLate == 0) {
		t.Errorf("seed %d: prefetcher attached but PrefetchHits=%d PrefetchLate=%d", seed, s.PrefetchHits, s.PrefetchLate)
	}
}
