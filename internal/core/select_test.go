package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
)

// selectHarness drives a real Core's commit/issue/dispatch stages over a
// random µop stream fed straight into its fetch queue, with the stamp
// oracle (agematrix_test.go) shadowing the scheduler: every dispatched key
// gets a stamp, and every selection of every cycle is made twice — by
// Core.pick and by the oracle's argmin — over the same candidate vectors.
type selectHarness struct {
	t      *testing.T
	c      *Core
	r      *rand.Rand
	prog   *program.Program
	oracle *stampSelect

	// What the stream exercised; the test requires each to be nonzero.
	picks, prioPicks, portBusyPicks int
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
	for ; n > 0 && c.fqLen < c.cfg.FTQSize; n-- {
		pc := h.r.Intn(h.prog.Len() - 1)
		addr := uint64(0x10000 + 8*h.r.Intn(4))
		if h.r.Intn(3) == 0 {
			addr = uint64(0x100000 + 64*h.r.Intn(1<<18))
		}
		c.pushFetched(emu.DynInst{PC: pc, NextPC: pc + 1, Addr: addr, Inst: &h.prog.Insts[pc]}, false, 0)
	}
}

// issue runs one select stage twice: first pick by pick on copies of the
// candidate vectors, asserting Core.pick against the oracle (same key,
// same IssuedCritical and QueueJumpSum increments) and predicting which
// picks find a port; then for real through Core.issue, which must issue
// exactly the predicted µops and leave the same diagnostics.
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
	for n := 0; n < c.cfg.FetchWidth; n++ {
		crit, jump := c.stats.IssuedCritical, c.stats.QueueJumpSum
		got := c.pick(bid, prio)

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
// ring (32), leaves part of it unused (48 of 64, 180 of 256, 224 of 256,
// 336 and 448 of 512) and spans one to eight vector words, every pick and
// both CRISP diagnostics equal the stamp argmin's. Mutation check: scanning
// from index 0 instead of the head's index in Core.pick fails every row.
func TestSelectMatchesStampOracle(t *testing.T) {
	windows := []struct{ rs, rob int }{
		{12, 32}, {16, 48}, {64, 180}, {96, 224}, {128, 336}, {192, 448},
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
					h.cycle(h.r.Intn(cfg.FetchWidth + 1))
				}
				for c.fqLen > 0 || c.headSeq != c.tailSeq {
					h.cycle(0)
				}
				if h.picks == 0 || h.portBusyPicks == 0 || h.rsFullROBNotFull == 0 || h.headWraps < 10 ||
					(sched == SchedCRISP && (h.prioPicks == 0 || c.stats.QueueJumpSum == 0)) {
					t.Errorf("stream too tame: %d picks (%d via PRIO, %d port-busy), QueueJumpSum %d, %d RS-full cycles with ROB room, %d head wraps",
						h.picks, h.prioPicks, h.portBusyPicks, c.stats.QueueJumpSum, h.rsFullROBNotFull, h.headWraps)
				}
			})
		}
	}
}
