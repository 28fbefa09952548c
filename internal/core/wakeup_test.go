package core

import (
	"math/rand"
	"slices"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/emu"
)

// wakeupLatencies is the mix the wheel is tested and timed on: what an ALU
// op, a forwarded load, an L1 hit, an LLC hit and a DRAM access are away,
// the wheel's last bucket, the first cycle that does not fit (and the one
// after), and a bank queue's worth.
var wakeupLatencies = []uint64{1, 2, 4, 30, 200, wheelSize - 1, wheelSize, wheelSize + 1, 5000}

// TestWheelMatchesHeap drives the wheel and a plain wakeupHeap — the whole
// wakeup structure before the wheel, still what holds the far events — with
// one stream of schedules, drains and clock jumps, as the core makes them:
// a node is pending at most once, a wakeup is for a later cycle than the
// current one, the clock moves by one cycle or jumps to any cycle up to the
// earliest pending wakeup (a core's skip goes all the way, or stops short
// at an occupancy-sample or UPC-window edge). Every cycle visited must wake the
// same nodes, and earliest must name the heap's minimum exactly. Mutation
// checks: sending a wakeup wheelSize cycles out to the wheel (`>` for `>=`
// in schedule) wakes it a turn early; starting earliest's scan at now's
// bucket, or dropping its last step, misses the minimum.
func TestWheelMatchesHeap(t *testing.T) {
	const nodes = 3 * 64
	r := rand.New(rand.NewSource(26))
	var w wakeupWheel
	var ref wakeupHeap
	next := make([]int32, nodes)
	idle := make([]int32, nodes) // nodes with no wakeup pending
	for i := range idle {
		idle[i] = int32(i)
	}
	schedule := func(now uint64) {
		// Three turns of the wheel in four are quiet, so that it is often
		// one wakeup that is pending, anywhere in the wheel.
		if now/wheelSize%4 != 0 && r.Intn(64) != 0 {
			return
		}
		for k := r.Intn(4); k > 0 && len(idle) > 0; k-- {
			i := r.Intn(len(idle))
			node := idle[i]
			idle[i] = idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			at := now + wakeupLatencies[r.Intn(len(wakeupLatencies))]
			w.schedule(next, now, at, node)
			ref.push(at, node)
		}
	}
	now := uint64(r.Intn(1 << 20))
	var far, jumps, turns int
	for start := now; now < start+2000*wheelSize; {
		schedule(now) // before this cycle's drain: dispatch ran a cycle ago
		var got, want []int32
		for node := w.due(next, now); node >= 0; node = next[node] {
			got = append(got, node)
		}
		for len(ref) > 0 && ref[0].at <= now {
			if ev := ref.pop(); ev.at < now {
				t.Fatalf("cycle %d: the stream skipped the wakeup of node %d at %d", now, ev.node, ev.at)
			} else {
				want = append(want, ev.node)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: wheel woke nodes %v, heap %v", now, got, want)
		}
		idle = append(idle, got...)
		schedule(now) // after it: this cycle's execute and dispatch

		first := never
		if len(ref) > 0 {
			first = ref[0].at
		}
		if got := w.earliest(now); got != first {
			t.Fatalf("cycle %d: earliest = %d, heap minimum %d", now, got, first)
		}
		far = max(far, len(w.far))
		turns = int(now-start) / wheelSize
		switch r.Intn(4) {
		case 0:
			if first != never {
				now = first
				jumps++
				continue
			}
		case 1:
			if first != never {
				now += 1 + uint64(r.Int63n(int64(first-now)))
				continue
			}
		}
		now++
	}
	if far == 0 || jumps < 1000 || turns < 1500 {
		t.Errorf("stream too tame: overflow heap peaked at %d, %d jumps to the earliest wakeup, %d turns of the wheel", far, jumps, turns)
	}
}

// BenchmarkWakeup times one wakeup through the wheel, scheduled and
// drained, over the latency mix above: 64 consumers a cycle would be a
// saturated core, 4 is closer, the clock moves a cycle at a time.
func BenchmarkWakeup(b *testing.B) {
	const nodes = 3 * 256
	w := wakeupWheel{far: make(wakeupHeap, 0, nodes)}
	next := make([]int32, nodes)
	idle := make([]int32, nodes)
	for i := range idle {
		idle[i] = int32(i)
	}
	r := rand.New(rand.NewSource(26))
	lat := make([]uint64, 1024)
	for i := range lat {
		lat[i] = wakeupLatencies[r.Intn(len(wakeupLatencies))]
	}
	b.ReportAllocs()
	b.ResetTimer()
	now, woken := uint64(0), 0
	for n := 0; n < b.N; now++ {
		for node := w.due(next, now); node >= 0; node = next[node] {
			idle = append(idle, node)
			woken++
		}
		for k := 0; k < 4 && len(idle) > 0 && n < b.N; k++ {
			node := idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			w.schedule(next, now, now+lat[n&1023], node)
			n++
		}
	}
	if woken > b.N {
		b.Fatalf("%d wakeups for %d schedules", woken, b.N)
	}
}

// BenchmarkSelect times one issue() over a 256-entry ring whose window is
// half ready: the wakeup drain finds nothing, selectByAge makes its six
// picks from a head in the middle of a word, and no pick finds a port, so
// the vectors are the same every iteration and nothing executes. Under
// crisp a quarter of the ready instructions are critical.
func BenchmarkSelect(b *testing.B) {
	for _, sched := range []SchedulerKind{SchedOldestFirst, SchedCRISP} {
		b.Run(sched.String(), func(b *testing.B) {
			r := rand.New(rand.NewSource(26))
			p := randomSelectProgram(r, 64)
			cfg := DefaultConfig()
			cfg.RSSize, cfg.ROBSize, cfg.Scheduler = 128, 256, sched
			c := New(cfg, p, emu.New(p, nil), cache.NewHierarchy(cache.DefaultHierConfig()), nil)
			c.headSeq, c.tailSeq = 100, 100+256
			for seq := c.headSeq; seq < c.tailSeq; seq++ {
				e := c.robEntry(seq)
				e.seq, e.d.Inst, e.slot = seq, &p.Insts[r.Intn(64)], int(seq&c.robMask)
				if r.Intn(2) == 0 {
					c.readyBid.Set(e.slot)
					if r.Intn(4) == 0 {
						c.readyPrio.Set(e.slot)
					}
				}
			}
			for cls := range c.portBusy {
				for i := range c.portBusy[cls] {
					c.portBusy[cls][i] = never
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				c.issue()
			}
			if c.readyBid.Count() < 100 || c.stats.LoadExecs+c.stats.StoreExecs != 0 {
				b.Fatal("the select stage issued something")
			}
		})
	}
}
