package branch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// accuracy runs n outcomes from gen through p and returns the fraction
// predicted correctly over the second half (after warmup).
func accuracy(p Predictor, pc uint64, n int, gen func(i int) bool) float64 {
	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		actual := gen(i)
		pred := p.PredictAndTrain(pc, actual)
		if i >= n/2 {
			counted++
			if pred == actual {
				correct++
			}
		}
	}
	return float64(correct) / float64(counted)
}

func TestPerfectPredictor(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if acc := accuracy(Perfect{}, 0x100, 1000, func(int) bool { return r.Intn(2) == 0 }); acc != 1.0 {
		t.Errorf("perfect accuracy = %v", acc)
	}
}

func TestTAGELearnsLoopPattern(t *testing.T) {
	// Loop branch: taken 19 times, then not taken (period 20). Requires
	// ~20 bits of history.
	acc := accuracy(NewTAGE(12, 10), 0x80, 8000, func(i int) bool { return i%20 != 19 })
	if acc < 0.98 {
		t.Errorf("TAGE loop accuracy = %v, want >= 0.98", acc)
	}
}

func TestTAGELearnsLongPattern(t *testing.T) {
	// Not taken every 25th outcome: predicting it takes 24 bits of history.
	gen := func(i int) bool { return i%50 != 49 && i%50 != 24 }
	if tacc := accuracy(NewTAGE(12, 10), 0x80, 20000, gen); tacc < 0.95 {
		t.Errorf("TAGE long-pattern accuracy = %v, want >= 0.95", tacc)
	}
}

func TestTAGERandomIsHard(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	acc := accuracy(NewTAGE(10, 8), 0x80, 10000, func(int) bool { return r.Intn(2) == 0 })
	if acc < 0.4 || acc > 0.6 {
		t.Errorf("TAGE random accuracy = %v, want ~0.5", acc)
	}
}

func TestTAGEMultipleBranches(t *testing.T) {
	// Two branches with different biases must not destructively alias.
	p := NewTAGE(12, 10)
	correct, total := 0, 0
	for i := 0; i < 8000; i++ {
		for pc, gen := range map[uint64]bool{0x100: true, 0x204: i%3 == 0} {
			pred := p.PredictAndTrain(pc, gen)
			if i > 4000 {
				total++
				if pred == gen {
					correct++
				}
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Errorf("two-branch accuracy = %v, want >= 0.95", acc)
	}
}

func TestTAGEMispredictRate(t *testing.T) {
	p := NewTAGE(10, 8)
	for i := 0; i < 1000; i++ {
		p.PredictAndTrain(0x10, true)
	}
	if r := p.MispredictRate(); r > 0.05 {
		t.Errorf("always-taken mispredict rate = %v", r)
	}
}

func TestBTBHitAfterInsert(t *testing.T) {
	b := NewBTB(8192, 4)
	b.Insert(0x400, 77)
	if tgt, ok := b.Lookup(0x400); !ok || tgt != 77 {
		t.Errorf("Lookup = %d,%v", tgt, ok)
	}
	if _, ok := b.Lookup(0x404); ok {
		t.Errorf("lookup of never-inserted pc hit")
	}
	b.Insert(0x400, 99) // update in place
	if tgt, _ := b.Lookup(0x400); tgt != 99 {
		t.Errorf("updated target = %d", tgt)
	}
}

func TestBTBEvictsLRU(t *testing.T) {
	b := NewBTB(8, 2) // 4 sets x 2 ways
	// Three PCs mapping to set 0 (pc % 4 == 0).
	b.Insert(0, 10)
	b.Insert(4, 11)
	b.Lookup(0) // make pc 0 MRU
	b.Insert(8, 12)
	if _, ok := b.Lookup(4); ok {
		t.Errorf("LRU entry pc=4 survived")
	}
	if tgt, ok := b.Lookup(0); !ok || tgt != 10 {
		t.Errorf("MRU entry pc=0 evicted")
	}
	if tgt, ok := b.Lookup(8); !ok || tgt != 12 {
		t.Errorf("new entry missing")
	}
}

func TestBTBProperty(t *testing.T) {
	f := func(pcs []uint64) bool {
		b := NewBTB(1024, 4)
		if len(pcs) > 64 {
			pcs = pcs[:64]
		}
		for i, pc := range pcs {
			b.Insert(pc, i)
		}
		// The most recently inserted pc must always hit.
		if len(pcs) == 0 {
			return true
		}
		last := pcs[len(pcs)-1]
		want := len(pcs) - 1
		for i := len(pcs) - 1; i >= 0; i-- {
			if pcs[i] == last {
				want = i
				break
			}
		}
		_ = want
		_, ok := b.Lookup(last)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRASBalancedCalls(t *testing.T) {
	r := NewRAS(16)
	for i := 0; i < 10; i++ {
		r.Push(100 + i)
	}
	for i := 9; i >= 0; i-- {
		got, ok := r.Pop()
		if !ok || got != 100+i {
			t.Fatalf("Pop = %d,%v, want %d", got, ok, 100+i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Errorf("underflow Pop ok")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := 0; i < 6; i++ {
		r.Push(i)
	}
	// Deepest 4 survive: 5,4,3,2.
	for want := 5; want >= 2; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v, want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Errorf("over-popped wrapped RAS")
	}
}
