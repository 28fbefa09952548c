package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
)

// firstFrom and countRing are the Bitset primitives the pick-per-slot
// select was built on, kept with it as the oracle (and checked themselves,
// in bitset_test.go and agematrix_test.go, against one-bit-at-a-time
// references and the stamp argmin).
//
// firstFrom is the index of the first set bit in circular order starting
// at from (from, from+1, …, Len()-1, 0, …, from-1), or -1 if no bit is
// set — the oldest candidate of a vector keyed by ROB ring index, scanned
// from the head's. Each word is read once, the starting word twice.
func firstFrom(b *Bitset, from int) int {
	wi := from >> 6
	if w := b.words[wi] &^ (1<<uint(from&63) - 1); w != 0 {
		return wi<<6 + bits.TrailingZeros64(w)
	}
	// The last step revisits word wi whole: its bits at or above from are
	// known clear, so whatever it finds lies below from.
	for i, j := 0, wi; i < len(b.words); i++ {
		if j++; j == len(b.words) {
			j = 0
		}
		if w := b.words[j]; w != 0 {
			return j<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// countRing returns the number of set bits in the circular range
// [from, to): from ≤ to covers from..to-1, from > to wraps through
// Len()-1 to 0.
func countRing(b *Bitset, from, to int) int {
	n := countBelow(b, to) - countBelow(b, from)
	if to < from {
		n += b.Count()
	}
	return n
}

// countBelow returns the number of set bits at positions below i.
func countBelow(b *Bitset, i int) int {
	n := 0
	for _, w := range b.words[:i>>6] {
		n += bits.OnesCount64(w)
	}
	if r := uint(i & 63); r != 0 {
		n += bits.OnesCount64(b.words[i>>6] & (1<<r - 1))
	}
	return n
}

// refPick is one selection of the select stage Core.selectByAge replaced:
// issue() copied BID and PRIO into scratch vectors, called this once per
// selection slot and cleared the pick from both copies, whether or not it
// found a port. It rescans from the head every time.
func refPick(c *Core, bid, prio *Bitset) int {
	head := int(c.headSeq & c.robMask)
	if c.cfg.Scheduler == SchedCRISP {
		if s := firstFrom(prio, head); s >= 0 {
			c.stats.IssuedCritical++
			c.stats.QueueJumpSum += uint64(countRing(bid, head, s))
			return s
		}
	}
	return firstFrom(bid, head)
}

// selectHarness drives a real Core's commit/issue/dispatch stages over a
// random µop stream fed straight into its fetch queue, with the stamp
// oracle (agematrix_test.go) shadowing the scheduler: every dispatched key
// gets a stamp, and every selection of every cycle is made three times over
// the same candidate vectors — by refPick, by the oracle's argmin, and by
// Core.selectByAge, which makes all of a cycle's in one pass.
type selectHarness struct {
	t      *testing.T
	c      *Core
	r      *rand.Rand
	prog   *program.Program
	oracle *stampSelect

	// What the stream exercised; the test requires each to be nonzero.
	picks, prioPicks, portBusyPicks int
	prioPortBusyPicks               int
	rsFullROBNotFull, headWraps     int
}

// randomSelectProgram emits n straight-line µops over a small register
// file, so dependences are dense: single-cycle and multi-cycle ALU ops,
// unpipelined divides (ports stay busy), loads and stores. About a third
// carry the critical prefix.
func randomSelectProgram(r *rand.Rand, n int) *program.Program {
	reg := func() isa.Reg { return isa.R(1 + r.Intn(10)) }
	b := program.NewBuilder("select")
	for i := 0; i < n; i++ {
		switch k := r.Intn(20); {
		case k < 9:
			b.Add(reg(), reg(), reg())
		case k < 11:
			b.Mul(reg(), reg(), reg())
		case k < 12:
			b.Div(reg(), reg(), reg())
		case k < 17:
			b.Load(reg(), reg(), 0)
		default:
			b.Store(reg(), 0, reg())
		}
	}
	b.Halt()
	p := b.MustBuild()
	var crit []int
	for pc := 0; pc < n; pc++ {
		if r.Intn(3) == 0 {
			crit = append(crit, pc)
		}
	}
	p.SetCritical(crit)
	return p
}

func newSelectHarness(t *testing.T, cfg Config, seed int64) *selectHarness {
	r := rand.New(rand.NewSource(seed))
	p := randomSelectProgram(r, 512)
	c := New(cfg, p, emu.New(p, nil), cache.NewHierarchy(cache.DefaultHierConfig()), nil)
	// Start the ring mid-way so the head crosses the boundary early.
	c.headSeq = uint64(r.Intn(2 * len(c.rob)))
	c.tailSeq = c.headSeq
	return &selectHarness{t: t, c: c, r: r, prog: p, oracle: newStampSelect(len(c.rob))}
}

// feed queues up to n µops for dispatch: addresses are either one of a few
// hot words (store-to-load forwarding, L1 hits) or spread over 16 MB (DRAM
// misses that back the window up).
func (h *selectHarness) feed(n int) {
	c := h.c
	for ; n > 0 && c.fqLen < FTQSize; n-- {
		pc := h.r.Intn(h.prog.Len() - 1)
		addr := uint64(0x10000 + 8*h.r.Intn(4))
		if h.r.Intn(3) == 0 {
			addr = uint64(0x100000 + 64*h.r.Intn(1<<18))
		}
		c.fetchQ[(c.fqHead+c.fqLen)&(len(c.fetchQ)-1)] = fqEntry{
			d: emu.DynInst{PC: pc, NextPC: pc + 1, Addr: addr, Inst: &h.prog.Insts[pc]},
		}
		c.fqLen++
	}
}

// issue runs one select stage three times: first pick by pick on copies of
// the candidate vectors, asserting refPick against the oracle (same key,
// same IssuedCritical and QueueJumpSum increments) and predicting which
// picks find a port; then through Core.selectByAge, which must return the
// same picks in the same order; then for real through Core.issue, which
// must issue exactly the predicted µops, leave the ports as predicted and
// the same diagnostics.
func (h *selectHarness) issue() {
	c, t := h.c, h.t
	c.drainWakeups()
	bid, prio := NewBitset(c.readyBid.Len()), NewBitset(c.readyBid.Len())
	bid.CopyFrom(c.readyBid)
	prio.CopyFrom(c.readyPrio)
	var busy [isa.NumPortClasses][]uint64
	for cls := range busy {
		busy[cls] = append([]uint64(nil), c.portBusy[cls]...)
	}
	crit0, jump0 := c.stats.IssuedCritical, c.stats.QueueJumpSum

	var want []uint64 // seqs the real issue() must execute
	var seq []int32   // the cycle's picks in order
	for n := 0; n < FetchWidth; n++ {
		crit, jump := c.stats.IssuedCritical, c.stats.QueueJumpSum
		got := refPick(c, bid, prio)

		key, wantCrit, wantJump := -1, uint64(0), uint64(0)
		if c.cfg.Scheduler == SchedCRISP {
			if key = h.oracle.oldestAmong(prio); key >= 0 {
				wantCrit, wantJump = 1, uint64(h.oracle.olderCount(bid, key))
				h.prioPicks++
			}
		}
		if key < 0 {
			key = h.oracle.oldestAmong(bid)
		}
		if got != key || c.stats.IssuedCritical-crit != wantCrit || c.stats.QueueJumpSum-jump != wantJump {
			t.Fatalf("cycle %d pick %d (head %d tail %d): pick = key %d (+%d critical, +%d jumped), oracle key %d (+%d, +%d)",
				c.cycle, n, c.headSeq, c.tailSeq, got, c.stats.IssuedCritical-crit, c.stats.QueueJumpSum-jump, key, wantCrit, wantJump)
		}
		if key < 0 {
			break
		}
		h.picks++
		seq = append(seq, int32(key))
		bid.Clear(key)
		prio.Clear(key)
		e := c.keyEntry(key)
		op := e.d.Inst.Op
		port := -1
		for i, b := range busy[op.Class()] {
			if b <= c.cycle {
				port = i
				break
			}
		}
		if port < 0 {
			h.portBusyPicks++ // stays ready: must be picked again next cycle
			if wantCrit == 1 {
				h.prioPortBusyPicks++ // and must not be picked again from BID
			}
			continue
		}
		busy[op.Class()][port] = c.cycle + 1
		if !op.Pipelined() {
			busy[op.Class()][port] = c.cycle + uint64(op.Latency())
		}
		want = append(want, e.seq)
	}
	wantCrit, wantJump := c.stats.IssuedCritical, c.stats.QueueJumpSum
	c.stats.IssuedCritical, c.stats.QueueJumpSum = crit0, jump0

	if got := c.selectByAge(); !slices.Equal(got, seq) {
		t.Fatalf("cycle %d (head %d tail %d): selectByAge = keys %v, pick by pick %v", c.cycle, c.headSeq, c.tailSeq, got, seq)
	}
	if c.stats.IssuedCritical != wantCrit || c.stats.QueueJumpSum != wantJump {
		t.Fatalf("cycle %d: selectByAge left IssuedCritical %d QueueJumpSum %d, pick by pick %d %d",
			c.cycle, c.stats.IssuedCritical, c.stats.QueueJumpSum, wantCrit, wantJump)
	}
	c.stats.IssuedCritical, c.stats.QueueJumpSum = crit0, jump0

	waiting := h.unissued()
	c.issue()
	var got []uint64
	for _, seq := range waiting {
		if c.robEntry(seq).issued {
			got = append(got, seq)
		}
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("cycle %d: issue() executed seqs %v, oracle %v", c.cycle, got, want)
	}
	for cls := range busy {
		if !slices.Equal(c.portBusy[cls], busy[cls]) {
			t.Fatalf("cycle %d: issue() left class %d ports busy until %v, oracle %v", c.cycle, cls, c.portBusy[cls], busy[cls])
		}
	}
	if c.stats.IssuedCritical != wantCrit || c.stats.QueueJumpSum != wantJump {
		t.Fatalf("cycle %d: issue() left IssuedCritical %d QueueJumpSum %d, oracle %d %d",
			c.cycle, c.stats.IssuedCritical, c.stats.QueueJumpSum, wantCrit, wantJump)
	}
}

// unissued lists the in-flight seqs still waiting in the RS, oldest first.
func (h *selectHarness) unissued() []uint64 {
	var seqs []uint64
	for seq := h.c.headSeq; seq != h.c.tailSeq; seq++ {
		if !h.c.robEntry(seq).issued {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// cycle steps the backend once (the frontend is the feed).
func (h *selectHarness) cycle(feed int) {
	c := h.c
	head := c.headSeq
	c.commit()
	if head&^c.robMask != c.headSeq&^c.robMask {
		h.headWraps++
	}
	h.issue()
	h.feed(feed)
	tail := c.tailSeq
	c.dispatch()
	for seq := tail; seq != c.tailSeq; seq++ {
		h.oracle.insert(c.robEntry(seq).slot)
	}
	if c.dispStall&dsRSFull != 0 && c.tailSeq-c.headSeq < uint64(c.cfg.ROBSize) {
		h.rsFullROBNotFull++
	}
	c.cycle++
}

// TestSelectMatchesStampOracle is the differential test of the ROB-order
// select: under both age-ordered policies, over windows whose ROB fills its
// ring (32, 64), leaves part of it unused (48 of 64, 100 of 128, 180 and 224
// of 256, 336 and 448 of 512) and spans one to eight vector words, every
// pick and both CRISP diagnostics equal the stamp argmin's, pick by pick
// and in Core.selectByAge's one pass. Mutation checks: walking from word 0
// instead of the head's word in selectByAge fails every row; not masking
// PRIO out of the BID pass, or not subtracting the earlier picks from the
// bypass count, fails every crisp row.
func TestSelectMatchesStampOracle(t *testing.T) {
	windows := []struct{ rs, rob int }{
		{12, 32}, {16, 48}, {24, 64}, {40, 100}, {64, 180}, {96, 224}, {128, 336}, {192, 448},
	}
	for _, w := range windows {
		for _, sched := range []SchedulerKind{SchedOldestFirst, SchedCRISP} {
			w, sched := w, sched
			t.Run(fmt.Sprintf("%drs_%drob/%s", w.rs, w.rob, sched), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.RSSize, cfg.ROBSize, cfg.Scheduler = w.rs, w.rob, sched
				h := newSelectHarness(t, cfg, int64(w.rob)<<8|int64(sched))
				c := h.c
				for c.stats.Insts < uint64(40*w.rob) {
					h.cycle(h.r.Intn(FetchWidth + 1))
				}
				for c.fqLen > 0 || c.headSeq != c.tailSeq {
					h.cycle(0)
				}
				if h.picks == 0 || h.portBusyPicks == 0 || h.rsFullROBNotFull == 0 || h.headWraps < 10 ||
					(sched == SchedCRISP && (h.prioPicks == 0 || h.prioPortBusyPicks == 0 || c.stats.QueueJumpSum == 0)) {
					t.Errorf("stream too tame: %d picks (%d via PRIO, %d port-busy, %d both), QueueJumpSum %d, %d RS-full cycles with ROB room, %d head wraps",
						h.picks, h.prioPicks, h.portBusyPicks, h.prioPortBusyPicks, c.stats.QueueJumpSum, h.rsFullROBNotFull, h.headWraps)
				}
			})
		}
	}
}

// TestSelectByAgeRandomVectors compares the one-pass select with the
// pick-per-slot loop on vectors no pipeline would produce: any density,
// every head of a one-, two- and four-word ring (in a one-word ring every
// head but 0 makes the walk come back into the word it started in), PRIO
// any subset of BID, more PRIO bits than selection slots and fewer.
func TestSelectByAgeRandomVectors(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	p := randomSelectProgram(r, 8)
	for _, ring := range []int{64, 128, 256} {
		for _, sched := range []SchedulerKind{SchedOldestFirst, SchedCRISP} {
			cfg := DefaultConfig()
			cfg.RSSize, cfg.ROBSize, cfg.Scheduler = ring/2, ring, sched
			c := New(cfg, p, emu.New(p, nil), cache.NewHierarchy(cache.DefaultHierConfig()), nil)
			bid, prio := NewBitset(ring), NewBitset(ring)
			for trial := 0; trial < 40; trial++ {
				c.readyBid.Reset()
				c.readyPrio.Reset()
				nBid, nPrio := 1+r.Intn(ring), r.Intn(4)
				for k := 0; k < ring; k++ {
					if r.Intn(ring) < nBid {
						c.readyBid.Set(k)
						if r.Intn(4) < nPrio {
							c.readyPrio.Set(k)
						}
					}
				}
				for head := 0; head < ring; head++ {
					c.headSeq = uint64(head + ring*r.Intn(3))
					c.stats.IssuedCritical, c.stats.QueueJumpSum = 0, 0
					bid.CopyFrom(c.readyBid)
					prio.CopyFrom(c.readyPrio)
					var want []int32
					for n := 0; n < FetchWidth; n++ {
						key := refPick(c, bid, prio)
						if key < 0 {
							break
						}
						bid.Clear(key)
						prio.Clear(key)
						want = append(want, int32(key))
					}
					wantCrit, wantJump := c.stats.IssuedCritical, c.stats.QueueJumpSum
					c.stats.IssuedCritical, c.stats.QueueJumpSum = 0, 0
					got := c.selectByAge()
					if !slices.Equal(got, want) || c.stats.IssuedCritical != wantCrit || c.stats.QueueJumpSum != wantJump {
						t.Fatalf("ring %d %s head %d bid %x prio %x: selectByAge = %v (+%d critical, +%d jumped), pick by pick %v (+%d, +%d)",
							ring, sched, head, c.readyBid.words, c.readyPrio.words,
							got, c.stats.IssuedCritical, c.stats.QueueJumpSum, want, wantCrit, wantJump)
					}
				}
			}
		}
	}
}
