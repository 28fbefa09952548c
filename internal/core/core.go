package core

import (
	"fmt"
	"math/bits"
	rtmetrics "runtime/metrics"
	"time"

	"crisp/internal/branch"
	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/metrics"
	"crisp/internal/program"
)

// Marker lets a hardware criticality mechanism (IBDA) tag µops at
// dispatch. producers holds the static PCs of the most recent writers of
// the µop's source registers (-1 for architecturally ready values); memory
// producers are not visible, matching register-only IBDA. The return value
// ORs with the instruction's static CRISP prefix.
type Marker interface {
	MarkDispatch(pc int, isLoad bool, producers []int) bool
}

// entry is one in-flight µop: a ROB entry, and while waiting also an RS
// entry (slot >= 0; slot is its scheduler key, see Core.readyBid).
type entry struct {
	seq uint64
	d   emu.DynInst

	critical     bool
	mispredicted bool

	issued bool
	done   bool
	doneAt uint64
	served cache.ServedBy // loads: level serving the access

	dep1, dep2 int64 // producer seqs, -1 when architecturally ready
	storeDep   int64 // forwarding store seq, -1 if none

	slot int // scheduler key while waiting, -1 otherwise
}

// fqEntry is a fetched, not yet dispatched µop.
type fqEntry struct {
	d               emu.DynInst
	mispredicted    bool
	dispatchReadyAt uint64
}

// Core is the cycle-level OOO processor model.
type Core struct {
	cfg  Config
	prog *program.Program
	em   *emu.Emulator
	hier *cache.Hierarchy

	bp  branch.Predictor
	btb *branch.BTB
	ras *branch.RAS

	marker Marker

	// Fetch state. fetchQ is a ring buffer (capacity FTQSize + FetchWidth
	// rounded up to a power of two) so fetch/dispatch moves no memory.
	fetchQ            []fqEntry
	fqHead, fqLen     int
	fetchBlockedUntil uint64
	waitingBranchSeq  int64 // seq of unresolved mispredicted branch, -1 none
	mispredictPending bool  // a mispredicted branch is fetched but not yet dispatched
	curFetchLine      uint64
	streamDone        bool
	fetched           uint64

	// Backend state.
	rob       []entry
	headSeq   uint64
	tailSeq   uint64
	slots     []*entry   // SchedRandom only: RAND slot -> entry
	matrix    *AgeMatrix // SchedRandom only: RAND slot allocation
	regProd   [isa.NumRegs]int64
	regProdPC [isa.NumRegs]int
	storeQ    []uint64 // power-of-two ring of in-flight store seqs, FIFO
	sqHead    int
	lqCount   int
	sqCount   int
	rsCount   int
	portBusy  [isa.NumPortClasses][]uint64
	rng       uint64 // SchedRandom's slot and pick draws
	producers []int  // scratch for marker callbacks

	// Cycle-accounting state (internal/metrics): dispStall records which
	// backend resources blocked dispatch last cycle, redirectUntil marks
	// the end of the latest mispredict-redirect window.
	dispStall     uint8
	redirectUntil uint64
	robMask       uint64 // len(rob)-1; ring capacity is a power of two

	// Incremental scheduler state (see wakeup.go): persistent BID/PRIO
	// vectors plus the wakeup machinery that maintains them, indexed by
	// scheduler key: the ROB ring index (seq & robMask) under the
	// age-ordered policies, so age order is bit order circularly from the
	// head's index; the RAND slot under SchedRandom.
	readyBid, readyPrio *Bitset
	scratchBid          *Bitset // SchedRandom only: the cycle's unpicked candidates
	picks               []int32 // age-ordered policies: the cycle's picks
	waitCount           []int8  // per key: outstanding unready deps
	waiterHead          []int32 // per ROB index: waiter chain head, -1 empty
	waiterNext          []int32 // per chain node (key*3 + dep index)
	wakeups             wakeupWheel

	cycle       uint64
	stats       Result
	allocSample [1]rtmetrics.Sample // heapAllocs' read buffer

	upcAccum       uint64
	lastRetire     uint64
	lastRetireIter uint64

	// Dense per-PC profile storage (see loadProf/branchProf/exportProfs).
	loadProfs   []LoadProf
	branchProfs []BranchProf
}

// New builds a core over the given program, emulator and hierarchy.
// marker may be nil.
func New(cfg Config, prog *program.Program, em *emu.Emulator, hier *cache.Hierarchy, marker Marker) *Core {
	ring := ceilPow2(cfg.ROBSize)
	keys := ring
	if cfg.Scheduler == SchedRandom {
		keys = cfg.RSSize
	}
	c := &Core{
		cfg:  cfg,
		prog: prog,
		em:   em,
		hier: hier,
		btb:  branch.NewBTB(BTBEntries, BTBWays),
		ras:  branch.NewRAS(RASEntries),

		marker:           marker,
		waitingBranchSeq: -1,

		rob: make([]entry, ring),
		rng: 0x853C49E6748FEA9B,

		fetchQ: make([]fqEntry, ceilPow2(FTQSize+FetchWidth+1)),
		storeQ: make([]uint64, ceilPow2(StoreQueue)),

		readyBid:   NewBitset(keys),
		readyPrio:  NewBitset(keys),
		waitCount:  make([]int8, keys),
		waiterHead: make([]int32, ring),
		waiterNext: make([]int32, keys*3),
		picks:      make([]int32, 0, FetchWidth),
		wakeups:    wakeupWheel{far: make(wakeupHeap, 0, cfg.RSSize*3)},
	}
	if cfg.Scheduler == SchedRandom {
		c.slots = make([]*entry, keys)
		c.matrix = NewAgeMatrix(keys)
		c.scratchBid = NewBitset(keys)
	}
	for i := range c.waiterHead {
		c.waiterHead[i] = -1
	}
	if cfg.PerfectBP {
		c.bp = branch.Perfect{}
	} else {
		c.bp = branch.NewTAGE(branch.DefaultTAGELogBase, branch.DefaultTAGELogTagged)
	}
	for i := range c.regProd {
		c.regProd[i] = -1
		c.regProdPC[i] = -1
	}
	for cls, n := range isa.Ports() {
		c.portBusy[cls] = make([]uint64, n)
	}
	c.stats.Loads = make(map[int]*LoadProf)
	c.stats.Branches = make(map[int]*BranchProf)
	c.loadProfs = make([]LoadProf, prog.Len())
	c.branchProfs = make([]BranchProf, prog.Len())
	c.curFetchLine = ^uint64(0)
	c.robMask = uint64(len(c.rob) - 1)
	return c
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// robEntry maps a sequence number to its ring slot. The ring capacity is
// the ROB size rounded up to a power of two (occupancy is still bounded by
// cfg.ROBSize at dispatch), so the hot-path modulo is a mask.
func (c *Core) robEntry(seq uint64) *entry { return &c.rob[seq&c.robMask] }

func (c *Core) nextRand() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

// SetBranchState replaces the core's frontend prediction structures with
// pre-warmed ones (checkpoint restore for sampled simulation). Nil
// arguments keep the structures New built. Must be called before Run.
// Callers pass clones: the core trains these during the window.
func (c *Core) SetBranchState(bp branch.Predictor, btb *branch.BTB, ras *branch.RAS) {
	if bp != nil {
		c.bp = bp
	}
	if btb != nil {
		c.btb = btb
	}
	if ras != nil {
		c.ras = ras
	}
}

// Run simulates to completion and returns the results: a single-core run
// is the one-core co-run.
func (c *Core) Run() *Result { return RunMulti([]*Core{c}, nil)[0] }

// stepCycle runs the four pipeline stages of the current cycle plus the
// occupancy sample that precedes any skip decision.
func (c *Core) stepCycle() {
	c.hier.Activate()
	c.commit()
	c.issue()
	c.dispatch()
	c.fetch()
	if c.cycle&occMask == 0 {
		c.sampleOccupancy()
	}
}

// advanceCycle increments the clock, closes UPC windows, and trips the
// no-progress watchdog.
func (c *Core) advanceCycle() {
	c.cycle++
	if c.cfg.UPCWindow > 0 && c.cycle%uint64(c.cfg.UPCWindow) == 0 {
		c.stats.UPCWindows = append(c.stats.UPCWindows, float64(c.upcAccum)/float64(c.cfg.UPCWindow))
		c.upcAccum = 0
	}
	// Watchdog on loop iterations, not simulated cycles: a legitimate
	// next-event jump can advance the clock by millions of cycles
	// (e.g. a huge UPC window over a dead backend), which must not be
	// mistaken for a hang. Iterations without retirement bound host
	// work directly.
	if c.stats.HostIters-c.lastRetireIter > 2_000_000 {
		panic(fmt.Sprintf("core: no commit for 2M loop iterations at cycle %d (head seq %d tail %d, fetchQ %d)",
			c.cycle, c.headSeq, c.tailSeq, c.fqLen))
	}
}

// finishRun materializes the result: per-PC profile export, host counters
// against the given run start, and this core's view of the memory-system
// statistics (its own share when the LLC/DRAM are contended).
func (c *Core) finishRun(start time.Time, startAllocs uint64) {
	c.exportProfs()
	c.stats.HostNS = time.Since(start).Nanoseconds()
	c.stats.HostAllocs = c.heapAllocs() - startAllocs
	c.stats.Cycles = c.cycle
	c.stats.L1I = c.hier.L1I.Stats()
	c.stats.L1D = c.hier.L1D.Stats()
	c.stats.LLC = c.hier.LLCStats()
	ds := c.hier.DRAMStats()
	c.stats.DRAMReads = ds.Reads
	c.stats.DRAMAvgLat = ds.AvgReadLatency()
}

// heapAllocs returns how many heap objects the process has allocated so
// far, read through runtime/metrics: runtime.ReadMemStats stops the world,
// which stalled every worker of a sweep at both ends of every run. The
// sample it reads into is a field of the core because a local one escapes
// to the heap, and measuring allocations should not allocate.
func (c *Core) heapAllocs() uint64 {
	c.allocSample[0].Name = "/gc/heap/allocs:objects"
	rtmetrics.Read(c.allocSample[:])
	return c.allocSample[0].Value.Uint64()
}

func (c *Core) finished() bool {
	return c.streamDone && c.fqLen == 0 && c.headSeq == c.tailSeq
}

// ---------------------------------------------------------------- commit

// commit retires up to CommitWidth µops and attributes every commit slot:
// n slots retire, and the remaining CommitWidth-n slots of this cycle are
// charged to the single stall bucket explaining why the ROB head could not
// retire. Exactly CommitWidth slots are accounted per cycle, so
// Breakdown.Total() == Cycles × CommitWidth by construction.
func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth; n++ {
		if c.headSeq == c.tailSeq {
			c.stats.Breakdown.Stalls[c.emptyBucket()] += uint64(c.cfg.CommitWidth - n)
			return
		}
		e := c.robEntry(c.headSeq)
		if !e.done || e.doneAt > c.cycle {
			c.stats.ROBHeadStalls++
			if e.d.Inst.Op == isa.OpLoad {
				c.loadProf(e.d.PC).HeadStall++
			}
			c.stats.Breakdown.Stalls[c.headBucket(e)] += uint64(c.cfg.CommitWidth - n)
			return
		}
		c.stats.Breakdown.Committed++
		switch e.d.Inst.Op {
		case isa.OpLoad:
			c.lqCount--
		case isa.OpStore:
			// Drain the store buffer to the cache in the background. The
			// drain carries no PC attribution: it is not a demand access by
			// the store instruction, and attributing it would let store PCs
			// reach the LLC miss observers (per-PC profiles, IBDA's
			// delinquent load table, which must only ever hold loads).
			c.hier.Data(cache.NoPC, e.d.Addr, true, c.cycle)
			if c.sqCount == 0 || c.storeQ[c.sqHead] != e.seq {
				panic("core: store queue out of sync at commit")
			}
			c.sqHead = (c.sqHead + 1) & (len(c.storeQ) - 1)
			c.sqCount--
		}
		if e.critical {
			c.stats.CriticalExecs++
		}
		c.headSeq++
		c.stats.Insts++
		c.upcAccum++
		c.lastRetire = c.cycle
		c.lastRetireIter = c.stats.HostIters
	}
}

// Dispatch-backpressure flags, recorded by dispatch() and consumed by the
// next cycle's commit() to split core-bound stalls by blocked resource.
const (
	dsROBFull = 1 << iota
	dsRSFull
	dsLQFull
	dsSQFull
)

// emptyBucket classifies a commit slot wasted while the ROB is empty:
// either the machine is recovering from a mispredict (squash + redirect)
// or the frontend simply failed to supply µops.
func (c *Core) emptyBucket() metrics.Bucket {
	if c.mispredictPending || c.cycle < c.redirectUntil {
		return metrics.BranchRedirect
	}
	return metrics.Frontend
}

// headBucket classifies a commit slot wasted behind an uncommittable ROB
// head. Issued loads charge the level serving them; issued non-loads are
// execution latency; a ready-but-unissued head lost port or selection
// bandwidth; otherwise the head waits on producers, and the split between
// plain dependency latency and a window/queue/RS bottleneck comes from the
// resource dispatch reported blocked last cycle.
func (c *Core) headBucket(e *entry) metrics.Bucket {
	if e.issued {
		if e.d.Inst.Op == isa.OpLoad {
			switch e.served {
			case cache.ServedDRAM:
				return metrics.MemDRAM
			case cache.ServedLLC:
				return metrics.MemLLC
			default:
				return metrics.MemL1
			}
		}
		return metrics.CoreExec
	}
	if e.slot >= 0 && c.readyBid.Get(e.slot) {
		return metrics.CorePort
	}
	switch {
	case c.dispStall&dsROBFull != 0:
		return metrics.CoreROBFull
	case c.dispStall&dsRSFull != 0:
		return metrics.CoreRSFull
	case c.dispStall&dsLQFull != 0:
		return metrics.CoreLQFull
	case c.dispStall&dsSQFull != 0:
		return metrics.CoreSQFull
	}
	return metrics.CoreDep
}

// occMask gates occupancy sampling to every 256th cycle: the period is a
// power of two, so the gate is one mask test. Cycle attribution itself is
// always on and per-cycle exact; only occupancy is sampled.
const occMask = 256 - 1

// sampleOccupancy records one occupancy sample of each bounded backend
// structure, every occMask+1 cycles.
func (c *Core) sampleOccupancy() {
	h := &c.stats.Hists
	h.OccROB.Observe(c.tailSeq - c.headSeq)
	h.OccRS.Observe(uint64(c.rsCount))
	h.OccLQ.Observe(uint64(c.lqCount))
	h.OccSQ.Observe(uint64(c.sqCount))
	h.OccMSHR.Observe(uint64(c.hier.L1D.MSHROccupancy(c.cycle) + c.hier.LLC.MSHROccupancy(c.cycle)))
}

// ----------------------------------------------------------------- issue

// issue models the select stage. The Table 1 baseline is
// "6-oldest-ready-instructions-first": each cycle the picker selects up to
// IssueWidth ready instructions in age order (a global pick, not per
// functional unit) and each selected instruction issues only if a port of
// its class is free — a selection whose port is busy is wasted, as in an
// age-matrix select feeding a fixed port binding. CRISP performs the same
// selection but consults the PRIO vector first (Figure 6), so
// critical-tagged instructions claim selection slots and ports before
// older non-critical work.
//
// The BID/PRIO vectors are persistent and maintained incrementally by the
// wakeup machinery (wakeup.go).
func (c *Core) issue() {
	c.drainWakeups()
	if !c.readyBid.Any() {
		return
	}
	if c.cfg.Scheduler == SchedRandom {
		c.issueRandom()
		return
	}
	for _, key := range c.selectByAge() {
		c.tryIssue(&c.rob[key])
	}
}

// selectByAge returns the cycle's picks under the age-ordered policies, in
// pick order. No bit of either vector is set while issue runs (a wakeup
// lands a cycle after its producer issues at the earliest) and a pick that
// finds no port changes no later pick, so they are PRIO's bits in ring
// order from the head, then BID's other bits in the same order: one walk
// over each vector's words, the head's word first for its bits at or above
// the head and again last for those below.
func (c *Core) selectByAge() []int32 {
	head := int(c.headSeq & c.robMask)
	below := uint64(1)<<uint(head&63) - 1
	words := len(c.readyBid.words)
	picks := c.picks[:0] // issue width is FetchWidth
	crisp := c.cfg.Scheduler == SchedCRISP
	for prio := crisp; ; prio = false {
		older := 0 // BID bits in the words walked so far
		for i := 0; i <= words && len(picks) < FetchWidth; i++ {
			wi := (head>>6 + i) & (words - 1)
			bid := c.readyBid.words[wi]
			if i == 0 {
				bid &^= below
			} else if i == words {
				bid &= below
			}
			w := bid
			if prio {
				w &= c.readyPrio.words[wi] // PRIO is a subset of BID
			} else if crisp {
				// The BID pass starts only once every PRIO bit is picked.
				w &^= c.readyPrio.words[wi]
			}
			for ; w != 0 && len(picks) < FetchWidth; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				if prio {
					c.stats.IssuedCritical++
					// Diagnostic: how many older ready entries did the PRIO
					// pick bypass? Not the earlier picks, all older and in BID.
					c.stats.QueueJumpSum += uint64(older + bits.OnesCount64(bid&(1<<uint(b)-1)) - len(picks))
				}
				picks = append(picks, int32(wi<<6+b))
			}
			older += bits.OnesCount64(bid)
		}
		if !prio {
			return picks
		}
	}
}

// issueRandom is the select stage of SchedRandom: each pick draws among
// the cycle's candidates not picked yet, which a scratch vector holds.
func (c *Core) issueRandom() {
	bid := c.scratchBid
	bid.CopyFrom(c.readyBid)
	for n := 0; n < FetchWidth; n++ {
		ready := bid.Count()
		if ready == 0 {
			return
		}
		slot := bid.SelectNth(int(c.nextRand() % uint64(ready)))
		bid.Clear(slot)
		c.tryIssue(c.slots[slot])
	}
}

// tryIssue issues a picked instruction on the first free port of its
// class. With none free the pick has used its selection slot for nothing
// and the instruction retries next cycle: its BID bit stays set.
func (c *Core) tryIssue(e *entry) {
	cls := e.d.Inst.Op.Class()
	for port, busy := range c.portBusy[cls] {
		if busy <= c.cycle {
			c.readyBid.Clear(e.slot)
			c.readyPrio.Clear(e.slot)
			c.execute(e, cls, port)
			return
		}
	}
}

// drainWakeups applies the wakeups due this cycle; a key whose last
// outstanding dependence resolves becomes a selection candidate.
func (c *Core) drainWakeups() {
	for node := c.wakeups.due(c.waiterNext, c.cycle); node >= 0; node = c.waiterNext[node] {
		key := node / 3
		if c.waitCount[key]--; c.waitCount[key] == 0 {
			c.setReady(int(key))
		}
	}
}

// keyEntry returns the waiting instruction a scheduler key names.
func (c *Core) keyEntry(key int) *entry {
	if c.slots != nil {
		return c.slots[key]
	}
	return &c.rob[key]
}

// setReady marks a waiting instruction as a selection candidate.
func (c *Core) setReady(slot int) {
	c.readyBid.Set(slot)
	if c.keyEntry(slot).critical {
		c.readyPrio.Set(slot)
	}
}

// armDep accounts one producer dependence of the instruction in slot.
// It returns 0 when the value is already available this cycle; otherwise
// it returns 1 after scheduling the wakeup — timed if the producer's
// completion cycle is known, chained onto the producer's waiter list if
// the producer has not executed yet. dep distinguishes the slot's up to
// three dependences (src1, src2, forwarding store) so two dependences on
// the same producer chain independently.
func (c *Core) armDep(seq int64, slot, dep int) int {
	if seq < 0 || uint64(seq) < c.headSeq {
		return 0 // architecturally ready or committed
	}
	node := int32(slot*3 + dep)
	p := c.robEntry(uint64(seq))
	if p.done {
		if p.doneAt <= c.cycle {
			return 0
		}
		c.wakeups.schedule(c.waiterNext, c.cycle, p.doneAt, node)
		return 1
	}
	robIdx := int32(uint64(seq) & c.robMask)
	c.waiterNext[node] = c.waiterHead[robIdx]
	c.waiterHead[robIdx] = node
	return 1
}

func (c *Core) execute(e *entry, cls isa.PortClass, port int) {
	e.issued = true
	if c.matrix != nil {
		c.matrix.Remove(e.slot)
		c.slots[e.slot] = nil
	}
	e.slot = -1
	c.rsCount--

	op := e.d.Inst.Op
	if op.Pipelined() {
		c.portBusy[cls][port] = c.cycle + 1
	} else {
		c.portBusy[cls][port] = c.cycle + uint64(op.Latency())
	}

	switch op {
	case isa.OpLoad:
		c.stats.LoadExecs++
		lp := c.loadProf(e.d.PC)
		lp.Count++
		if e.storeDep >= 0 {
			// Store-to-load forwarding: AGU + bypass.
			e.doneAt = c.cycle + 2
			e.served = cache.ServedL1
			lp.Forwards++
			lp.TotalLat += 2
			lp.LatHist.Observe(2)
			c.stats.Hists.LoadLat.Observe(2)
		} else {
			done, by := c.hier.Data(uint64(e.d.PC), e.d.Addr, false, c.cycle+1)
			e.doneAt = done
			e.served = by
			lat := done - c.cycle
			lp.TotalLat += lat
			lp.LatHist.Observe(lat)
			c.stats.Hists.LoadLat.Observe(lat)
			if by != cache.ServedL1 {
				lp.L1Miss++
			}
			if by == cache.ServedDRAM {
				lp.LLCMiss++
				mlp := uint64(c.hier.OutstandingMisses(c.cycle + 1))
				lp.MLPSum += mlp
				c.stats.Hists.DRAMLat.Observe(lat)
				c.stats.Hists.MLPAtMiss.Observe(mlp)
			}
		}
	case isa.OpStore:
		c.stats.StoreExecs++
		e.doneAt = c.cycle + 1
	default:
		e.doneAt = c.cycle + uint64(op.Latency())
	}
	e.done = true

	// The completion cycle is now known: convert consumers that chained
	// onto this producer into timed wakeups.
	robIdx := int32(e.seq & c.robMask)
	for node := c.waiterHead[robIdx]; node >= 0; {
		next := c.waiterNext[node] // schedule relinks node through the same array
		c.wakeups.schedule(c.waiterNext, c.cycle, e.doneAt, node)
		node = next
	}
	c.waiterHead[robIdx] = -1

	if e.mispredicted {
		// The branch has resolved: the frontend refetches from the correct
		// path after the redirect penalty. An in-force longer block (an
		// icache miss still filling) must not be shortened by the redirect,
		// so the later deadline wins.
		until := e.doneAt + RedirectPenalty
		c.fetchBlockedUntil = max(c.fetchBlockedUntil, until)
		c.redirectUntil = max(c.redirectUntil, until)
		if c.waitingBranchSeq == int64(e.seq) {
			c.waitingBranchSeq = -1
		}
	}
}

// -------------------------------------------------------------- dispatch

func (c *Core) dispatch() {
	c.dispStall = 0
	for n := 0; n < FetchWidth; n++ {
		if c.fqLen == 0 {
			return
		}
		f := &c.fetchQ[c.fqHead]
		if f.dispatchReadyAt > c.cycle {
			return
		}
		if c.tailSeq-c.headSeq >= uint64(c.cfg.ROBSize) {
			c.dispStall |= dsROBFull
			return
		}
		op := f.d.Inst.Op
		if op == isa.OpLoad && c.lqCount >= LoadQueue {
			c.dispStall |= dsLQFull
			return
		}
		if op == isa.OpStore && c.sqCount >= StoreQueue {
			c.dispStall |= dsSQFull
			return
		}
		slot := c.allocKey()
		if slot < 0 {
			c.dispStall |= dsRSFull
			return
		}

		seq := c.tailSeq
		e := c.robEntry(seq)
		// Field by field, not a literal built aside and copied over. doneAt
		// and served are the last occupant's until execute sets them, and
		// done and issued with them, which is what their readers check.
		e.seq, e.d, e.slot = seq, f.d, slot
		in := f.d.Inst
		e.critical, e.mispredicted = in.Critical, f.mispredicted
		e.issued, e.done = false, false
		e.dep1, e.dep2, e.storeDep = -1, -1, -1
		if in.Src1.Valid() {
			e.dep1 = c.regProd[in.Src1]
		}
		if in.Src2.Valid() {
			e.dep2 = c.regProd[in.Src2]
		}
		if op == isa.OpLoad {
			e.storeDep = c.findForwardingStore(&f.d)
			c.lqCount++
		}
		if op == isa.OpStore {
			c.storeQ[(c.sqHead+c.sqCount)&(len(c.storeQ)-1)] = seq
			c.sqCount++
		}

		if c.marker != nil {
			c.producers = c.producers[:0]
			if in.Src1.Valid() {
				c.producers = append(c.producers, c.regProdPC[in.Src1])
			}
			if in.Src2.Valid() {
				c.producers = append(c.producers, c.regProdPC[in.Src2])
			}
			if c.marker.MarkDispatch(f.d.PC, op == isa.OpLoad, c.producers) {
				e.critical = true
			}
		}

		if in.HasDst() {
			c.regProd[in.Dst] = int64(seq)
			c.regProdPC[in.Dst] = f.d.PC
		}

		if c.matrix != nil {
			c.matrix.Insert(slot)
			c.slots[slot] = e
		}
		c.rsCount++
		wait := c.armDep(e.dep1, slot, 0) + c.armDep(e.dep2, slot, 1)
		if op == isa.OpLoad {
			wait += c.armDep(e.storeDep, slot, 2)
		}
		c.waitCount[slot] = int8(wait)
		if wait == 0 {
			c.setReady(slot)
		}
		c.tailSeq++
		if f.mispredicted {
			c.mispredictPending = false
			c.waitingBranchSeq = int64(seq)
		}
		c.fqHead = (c.fqHead + 1) & (len(c.fetchQ) - 1)
		c.fqLen--
	}
}

// allocKey returns the scheduler key for the µop about to dispatch as
// tailSeq, or -1 when the RS is full. The age-ordered policies use its ROB
// ring index and bound occupancy by rsCount; SchedRandom draws a RAND slot
// (the draw precedes the full check, keeping its RNG stream as recorded).
func (c *Core) allocKey() int {
	if c.matrix != nil {
		return c.matrix.FreeSlot(c.nextRand())
	}
	if c.rsCount >= c.cfg.RSSize {
		return -1
	}
	return int(c.tailSeq & c.robMask)
}

// findForwardingStore returns the seq of the youngest older in-flight
// store whose 8-byte access fully covers the load's, or -1. Addresses
// are exact (oracle), modeling perfect memory disambiguation. Accesses
// are 8 bytes wide throughout, so cover means an exact address match; a
// partially overlapping store cannot supply all of the load's bytes from
// the store buffer, so the load falls through to the cache instead (no
// merge network is modeled).
func (c *Core) findForwardingStore(d *emu.DynInst) int64 {
	mask := len(c.storeQ) - 1
	for i := c.sqCount - 1; i >= 0; i-- {
		se := c.robEntry(c.storeQ[(c.sqHead+i)&mask])
		delta := int64(d.Addr) - int64(se.d.Addr)
		if delta == 0 {
			return int64(se.seq)
		}
		if delta < 8 && delta > -8 {
			return -1 // partial overlap: not forwardable
		}
	}
	return -1
}

// ----------------------------------------------------------------- fetch

func (c *Core) fetch() {
	if c.cycle < c.fetchBlockedUntil || c.mispredictPending || c.waitingBranchSeq >= 0 {
		c.stats.FetchStallCycle++
		return
	}
	if c.streamDone {
		return
	}
	if c.fqLen >= FTQSize {
		return
	}
	for n := 0; n < FetchWidth; n++ {
		if c.cfg.MaxInsts > 0 && c.fetched >= c.cfg.MaxInsts {
			c.streamDone = true
			return
		}
		// The emulator writes the µop where it will queue: the tail slot.
		if c.fqLen == len(c.fetchQ) {
			panic("core: fetch queue overflow")
		}
		f := &c.fetchQ[(c.fqHead+c.fqLen)&(len(c.fetchQ)-1)]
		d := &f.d
		if !c.em.StepInto(d) {
			c.streamDone = true
			return
		}
		c.fetched++

		// Instruction cache: fetching a new code line pays its access
		// latency, and FDIP prefetches the following lines.
		readyAt := c.cycle + FrontendDepth
		icacheStall := false
		line := c.prog.ByteAddr(d.PC) &^ 63
		if line != c.curFetchLine {
			done, hit := c.hier.Inst(line, c.cycle)
			c.curFetchLine = line
			for i := 1; i <= 3; i++ {
				c.hier.PrefetchInst(line+uint64(i*64), c.cycle)
			}
			if !hit {
				icacheStall = true
				c.fetchBlockedUntil = done
				readyAt = done + FrontendDepth
			}
		}

		f.mispredicted, f.dispatchReadyAt = false, readyAt
		c.fqLen++

		if d.Inst.Op.IsBranch() {
			mispredict, bubbleUntil := c.fetchBranch(d)
			if mispredict {
				f.mispredicted = true
				c.mispredictPending = true
				return
			}
			if bubbleUntil > c.fetchBlockedUntil {
				c.fetchBlockedUntil = bubbleUntil
			}
			if d.Taken || c.fetchBlockedUntil > c.cycle {
				// Taken branches end the fetch group; BTB-miss bubbles and
				// icache misses stop fetch until resolved.
				return
			}
			continue
		}

		if icacheStall {
			return
		}
	}
}

// fetchBranch models prediction for one branch µop. It returns whether the
// branch was mispredicted and, for correctly predicted taken branches that
// miss the BTB, the cycle until which fetch bubbles (0 if none).
func (c *Core) fetchBranch(d *emu.DynInst) (mispredict bool, bubbleUntil uint64) {
	in := d.Inst
	pcAddr := c.prog.ByteAddr(d.PC)
	c.stats.BranchExecs++
	bp := c.branchProf(d.PC)
	bp.Count++
	if d.Taken {
		bp.Taken++
	}

	switch in.Op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		pred := c.bp.PredictAndTrain(pcAddr, d.Taken)
		mispredict = pred != d.Taken
	case isa.OpJmp:
		// Direct unconditional: always predicted taken.
	case isa.OpCall:
		c.ras.Push(d.PC + 1)
	case isa.OpRet:
		target, ok := c.ras.Pop()
		mispredict = !ok || target != d.NextPC
	}

	if mispredict {
		c.stats.BranchMispreds++
		bp.Mispred++
		return true, 0
	}

	// Correct direction. Taken branches need the target from the BTB at
	// fetch; a miss costs a decode-redirect bubble.
	if d.Taken && in.Op != isa.OpRet {
		if _, ok := c.btb.Lookup(pcAddr); !ok {
			c.stats.BTBMisses++
			c.btb.Insert(pcAddr, d.NextPC)
			return false, c.cycle + BTBMissPenalty
		}
	}
	return false, 0
}

// ----------------------------------------------------------- small utils

// Per-PC profiles live in dense slices indexed by static PC while the
// simulation runs (the PC space is the program, so this is exact and much
// cheaper than map lookups on the execute/commit paths); Run materializes
// the Result maps from the touched entries at the end.

func (c *Core) loadProf(pc int) *LoadProf { return &c.loadProfs[pc] }

func (c *Core) branchProf(pc int) *BranchProf { return &c.branchProfs[pc] }

// exportProfs copies every touched per-PC profile into the Result maps.
// Every loadProf call site bumps Count or HeadStall and every branchProf
// call site bumps Count, so "touched" is exactly "some counter nonzero" —
// the map contents match what per-call map insertion would have produced.
func (c *Core) exportProfs() {
	for pc := range c.loadProfs {
		if p := &c.loadProfs[pc]; p.Count != 0 || p.HeadStall != 0 {
			cp := *p
			c.stats.Loads[pc] = &cp
		}
	}
	for pc := range c.branchProfs {
		if p := &c.branchProfs[pc]; p.Count != 0 {
			cp := *p
			c.stats.Branches[pc] = &cp
		}
	}
}
