// Package ibda implements the hardware-only baseline the paper compares
// against (Section 5.2): iterative backwards dependency analysis as in the
// load-slice architecture (Carlson et al., ISCA 2015). A delinquent load
// table (DLT) captures the load PCs missing the LLC most frequently; an
// instruction slice table (IST) accumulates the PCs of their
// address-generating producers, one dependency level per encounter.
//
// IBDA's structural shortcomings versus CRISP emerge from this design
// rather than being hard-coded:
//   - it observes dependencies through registers only (the rename-time
//     producer PCs), so slices through memory are invisible;
//   - it has no notion of critical-path filtering, so whole slices are
//     tagged, flooding the PRIO vector for slice-heavy applications;
//   - IST capacity bounds how much slice it can remember;
//   - the DLT selects by LLC miss frequency alone, so high-MLP loads that
//     are not latency-critical are still tagged.
package ibda

type assocTable struct {
	sets    int
	ways    int
	keys    []int
	valid   []bool
	lru     []uint32
	clock   uint32
	entries map[int]struct{} // used when infinite
}

// newAssocTable returns a sets×ways table, or the unbounded one for
// sets == 0.
func newAssocTable(sets, ways int) *assocTable {
	if sets == 0 {
		return &assocTable{entries: make(map[int]struct{})}
	}
	return &assocTable{
		sets: sets, ways: ways,
		keys:  make([]int, sets*ways),
		valid: make([]bool, sets*ways),
		lru:   make([]uint32, sets*ways),
	}
}

func (t *assocTable) contains(pc int) bool {
	if t.entries != nil {
		_, ok := t.entries[pc]
		return ok
	}
	base := (pc % t.sets) * t.ways
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.keys[base+w] == pc {
			t.clock++
			t.lru[base+w] = t.clock
			return true
		}
	}
	return false
}

func (t *assocTable) insert(pc int) {
	if t.entries != nil {
		t.entries[pc] = struct{}{}
		return
	}
	base := (pc % t.sets) * t.ways
	victim := 0
	for w := 0; w < t.ways; w++ {
		if !t.valid[base+w] || t.keys[base+w] == pc {
			victim = w
			break
		}
		if t.lru[base+w] < t.lru[base+victim] {
			victim = w
		}
	}
	t.clock++
	t.keys[base+victim] = pc
	t.valid[base+victim] = true
	t.lru[base+victim] = t.clock
}

func (t *assocTable) size() int {
	if t.entries != nil {
		return len(t.entries)
	}
	n := 0
	for _, v := range t.valid {
		if v {
			n++
		}
	}
	return n
}

// dltEntry tracks one delinquent load candidate.
type dltEntry struct {
	pc    int
	count uint64
}

// IBDA is the runtime criticality marker. It implements the core package's
// Marker interface structurally.
type IBDA struct {
	ist     *assocTable
	dlt     []dltEntry // bounded by dltSize
	dltSize int

	// Stats.
	Marked     uint64 // µops tagged critical at dispatch
	ISTInserts uint64
}

// Config sizes the hardware structures.
type Config struct {
	ISTEntries int // <= 0 means unbounded ("infinite IST")
	ISTWays    int
	DLTEntries int
}

// DefaultConfig returns the paper's primary IBDA configuration: a 1024-entry
// 4-way IST and a 32-entry delinquent load table.
func DefaultConfig() Config { return Config{ISTEntries: 1024, ISTWays: 4, DLTEntries: 32} }

// New returns an IBDA engine.
func New(cfg Config) *IBDA {
	if cfg.DLTEntries == 0 {
		cfg.DLTEntries = 32
	}
	return &IBDA{ist: newAssocTable(cfg.istGeometry()), dltSize: cfg.DLTEntries}
}

// istGeometry returns the sets and ways of the IST New builds: 0 sets for
// the unbounded one, and 4 ways where the config names none.
func (c Config) istGeometry() (sets, ways int) {
	if c.ISTEntries <= 0 {
		return 0, 0
	}
	ways = c.ISTWays
	if ways == 0 {
		ways = 4
	}
	return max(c.ISTEntries/ways, 1), ways
}

// NeverEvicts reports whether, on a program of n static instructions, the
// IST of c marks exactly what the unbounded IST marks: it is the unbounded
// one, or no set is ever asked to hold more PCs than it has ways. PCs are
// 0..n-1 and a PC's set is pc % sets, so a set is claimed by at most
// ⌈n/sets⌉ PCs, which is at most ways iff n ≤ sets·ways. A bounded IST
// removes an entry only to make room for another, so one that never
// evicts holds the map's entries.
func (c Config) NeverEvicts(n int) bool {
	sets, ways := c.istGeometry()
	return sets == 0 || n <= sets*ways
}

// OnLLCMiss records an LLC demand miss by the load at pc, maintaining the
// most-frequently-missing set (smallest-count replacement when full).
func (ib *IBDA) OnLLCMiss(pc int) {
	for i := range ib.dlt {
		if ib.dlt[i].pc == pc {
			ib.dlt[i].count++
			return
		}
	}
	if len(ib.dlt) < ib.dltSize {
		ib.dlt = append(ib.dlt, dltEntry{pc: pc, count: 1})
		return
	}
	min := 0
	for i := range ib.dlt {
		if ib.dlt[i].count < ib.dlt[min].count {
			min = i
		}
	}
	// Frequency-style replacement: a newcomer displaces the coldest entry
	// only once repeated misses have decayed it, so established hot loads
	// are not evicted by one-off misses.
	if ib.dlt[min].count <= 1 {
		ib.dlt[min] = dltEntry{pc: pc, count: 1}
	} else {
		ib.dlt[min].count--
	}
}

func (ib *IBDA) inDLT(pc int) bool {
	for i := range ib.dlt {
		if ib.dlt[i].pc == pc {
			return true
		}
	}
	return false
}

// MarkDispatch implements the core Marker interface: a µop is critical if
// its PC is in the IST, or if it is a DLT-resident delinquent load. When a
// µop is critical, the PCs of its register producers are inserted into the
// IST — one backward level per encounter, converging over iterations
// (the "iterative" in IBDA). Producers through memory are not visible.
func (ib *IBDA) MarkDispatch(pc int, isLoad bool, producers []int) bool {
	critical := ib.ist.contains(pc) || (isLoad && ib.inDLT(pc))
	if !critical {
		return false
	}
	ib.Marked++
	for _, p := range producers {
		if p >= 0 && !ib.ist.contains(p) {
			ib.ist.insert(p)
			ib.ISTInserts++
		}
	}
	return true
}

// ISTSize returns the current number of valid IST entries.
func (ib *IBDA) ISTSize() int { return ib.ist.size() }

// DLTSize returns the number of tracked delinquent loads.
func (ib *IBDA) DLTSize() int { return len(ib.dlt) }
