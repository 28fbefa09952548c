package core

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// stampSelect is the select the ROB-order scheduler replaced, kept as the
// test oracle: the age matrix as an insertion stamp per scheduler key, the
// oldest candidate as an argmin over the candidates' stamps. It knows
// nothing about rings or heads, so agreeing with it is what shows that
// firstFrom(head) picks in age-matrix order.
type stampSelect struct {
	age   []uint64
	stamp uint64
}

func newStampSelect(keys int) *stampSelect { return &stampSelect{age: make([]uint64, keys)} }

// insert records key as holding the youngest instruction.
func (m *stampSelect) insert(key int) {
	m.age[key] = m.stamp
	m.stamp++
}

// oldestAmong returns the candidate with the smallest stamp, or -1.
func (m *stampSelect) oldestAmong(cand *Bitset) int {
	best := -1
	for wi, w := range cand.Words() {
		for ; w != 0; w &= w - 1 {
			if k := wi<<6 + bits.TrailingZeros64(w); best < 0 || m.age[k] < m.age[best] {
				best = k
			}
		}
	}
	return best
}

// olderCount returns how many candidates are older than key.
func (m *stampSelect) olderCount(cand *Bitset, key int) int {
	n := 0
	for wi, w := range cand.Words() {
		for ; w != 0; w &= w - 1 {
			if m.age[wi<<6+bits.TrailingZeros64(w)] < m.age[key] {
				n++
			}
		}
	}
	return n
}

// ringModel is the life of a scheduler key without a core around it: µops
// dispatch at the tail of a ROB ring (capacity rounded up to a power of
// two, occupancy bounded by rob), issue in any order, and commit from the
// head once issued. waiting holds the dispatched, not yet issued keys.
type ringModel struct {
	rob        int
	mask       uint64
	head, tail uint64
	waiting    *Bitset
	issued     []bool
	oracle     *stampSelect
}

func newRingModel(rob int, start uint64) *ringModel {
	ring := ceilPow2(rob)
	return &ringModel{
		rob: rob, mask: uint64(ring - 1), head: start, tail: start,
		waiting: NewBitset(ring), issued: make([]bool, ring), oracle: newStampSelect(ring),
	}
}

func (m *ringModel) headKey() int { return int(m.head & m.mask) }

// dispatch allocates the next key, or returns -1 when the ROB is full.
func (m *ringModel) dispatch() int {
	if m.tail-m.head >= uint64(m.rob) {
		return -1
	}
	k := int(m.tail & m.mask)
	m.tail++
	m.issued[k] = false
	m.waiting.Set(k)
	m.oracle.insert(k)
	return k
}

func (m *ringModel) issue(k int) {
	m.waiting.Clear(k)
	m.issued[k] = true
}

// commit retires issued µops from the head.
func (m *ringModel) commit() {
	for m.head != m.tail && m.issued[m.headKey()] {
		m.head++
	}
}

// The age matrix orders the IQ by insertion; dispatch inserts in program
// order, so that is the order of the ROB ring from its head. These tests
// pin the select built on that — firstFrom(vector, head) over vectors keyed
// by ring index — to the stamp oracle.

func TestAgeMatrixSelectsInsertionOrder(t *testing.T) {
	// Five µops dispatched from ring index 5 of an 8-entry ring: the keys
	// wrap, the age order does not.
	m := newRingModel(8, 5)
	order := []int{5, 6, 7, 0, 1}
	for _, want := range order {
		if got := m.dispatch(); got != want {
			t.Fatalf("dispatch key = %d, want %d", got, want)
		}
	}
	cand := NewBitset(8)
	cand.CopyFrom(m.waiting)
	for _, want := range order {
		got := firstFrom(cand, m.headKey())
		if got != want || got != m.oracle.oldestAmong(cand) {
			t.Fatalf("firstFrom(head) = %d, want %d (oracle %d)", got, want, m.oracle.oldestAmong(cand))
		}
		cand.Clear(got)
	}
	if got := firstFrom(cand, m.headKey()); got != -1 {
		t.Errorf("empty candidates returned %d", got)
	}
}

func TestAgeMatrixSubsetSelection(t *testing.T) {
	// Keys 60..67 straddle the first word boundary of a 128-entry ring.
	m := newRingModel(128, 60)
	for i := 0; i < 8; i++ {
		m.dispatch()
	}
	cand := NewBitset(128)
	cand.Set(66)
	cand.Set(63)
	cand.Set(67)
	if got := firstFrom(cand, m.headKey()); got != 63 || got != m.oracle.oldestAmong(cand) {
		t.Errorf("oldest among {66,63,67} = %d, want 63", got)
	}
	if got, want := countRing(cand, m.headKey(), 67), m.oracle.olderCount(cand, 67); got != 2 || got != want {
		t.Errorf("older than 67 among {66,63,67} = %d, want 2 (oracle %d)", got, want)
	}
}

func TestAgeMatrixSlotReuse(t *testing.T) {
	m := newRingModel(4, 0)
	m.dispatch() // key 0
	m.dispatch() // key 1
	m.issue(0)
	m.commit() // head moves to key 1
	m.dispatch()
	m.dispatch()
	if k := m.dispatch(); k != 0 { // key 0 now holds the YOUNGEST µop
		t.Fatalf("fifth dispatch got key %d, want the reused key 0", k)
	}
	cand := NewBitset(4)
	cand.Set(0)
	cand.Set(1)
	if got := firstFrom(cand, m.headKey()); got != 1 || got != m.oracle.oldestAmong(cand) {
		t.Errorf("after reuse, oldest = %d, want 1", got)
	}
}

func TestAgeMatrixInsertOccupiedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("double insert did not panic")
		}
	}()
	m := NewAgeMatrix(4)
	m.Insert(2)
	m.Insert(2)
}

func TestFreeSlotExhaustion(t *testing.T) {
	m := NewAgeMatrix(4)
	for i := 0; i < 4; i++ {
		s := m.FreeSlot(uint64(i * 12345))
		if s < 0 {
			t.Fatalf("FreeSlot = -1 with %d occupied", i)
		}
		m.Insert(s)
	}
	if s := m.FreeSlot(99); s != -1 {
		t.Errorf("FreeSlot on full IQ = %d, want -1", s)
	}
}

// Property: for random dispatch/issue/commit sequences — ROB sizes that do
// and do not fill their ring, rings of one word and of several, starting
// points that put the head across the ring boundary early — firstFrom(head)
// over the waiting set always returns the earliest-dispatched waiting key.
func TestAgeMatrixProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rob := []int{24, 32, 48, 180, 224, 336, 448}[r.Intn(7)]
		m := newRingModel(rob, uint64(r.Intn(2*rob)))
		for step := 0; step < 4*rob; step++ {
			switch n := m.waiting.Count(); {
			case n > 0 && r.Intn(2) == 0:
				m.issue(m.waiting.SelectNth(r.Intn(n)))
				m.commit()
			default:
				m.dispatch()
			}
			if got, want := firstFrom(m.waiting, m.headKey()), m.oracle.oldestAmong(m.waiting); got != want {
				t.Logf("rob %d head %d tail %d: firstFrom = %d, oracle %d", rob, m.head, m.tail, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: priority selection (oldest among an arbitrary subset of the
// waiting keys) returns the subset member dispatched earliest, and the
// ring-range count behind QueueJumpSum is the number of older candidates.
func TestAgeMatrixPrioritySubsetProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rob := []int{32, 48, 180, 224, 336, 448}[r.Intn(6)]
		m := newRingModel(rob, uint64(r.Intn(4*rob)))
		for m.dispatch() >= 0 && r.Intn(rob) != 0 {
		}
		bid, prio := NewBitset(m.waiting.Len()), NewBitset(m.waiting.Len())
		for k := 0; k < m.waiting.Len(); k++ {
			if m.waiting.Get(k) && r.Intn(2) == 0 {
				bid.Set(k)
				if r.Intn(3) == 0 {
					prio.Set(k)
				}
			}
		}
		pick := firstFrom(prio, m.headKey())
		if pick != m.oracle.oldestAmong(prio) {
			return false
		}
		return pick < 0 || countRing(bid, m.headKey(), pick) == m.oracle.olderCount(bid, pick)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Any() {
		t.Errorf("fresh bitset Any = true")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 || !b.Get(64) || !b.Any() {
		t.Errorf("bitset state wrong: count=%d", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 2 {
		t.Errorf("clear failed")
	}
	b.Reset()
	if b.Any() {
		t.Errorf("reset failed")
	}
}
