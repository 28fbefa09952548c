package ibda

import "testing"

func TestDLTTracksFrequentMissers(t *testing.T) {
	ib := New(Config{ISTEntries: 64, ISTWays: 4, DLTEntries: 2})
	for i := 0; i < 10; i++ {
		ib.OnLLCMiss(100)
	}
	for i := 0; i < 5; i++ {
		ib.OnLLCMiss(200)
	}
	if !ib.inDLT(100) || !ib.inDLT(200) {
		t.Fatalf("frequent missers not tracked")
	}
	// A one-off miss cannot displace established entries with count > 1.
	ib.OnLLCMiss(300)
	if ib.inDLT(300) {
		t.Errorf("cold miss displaced hot DLT entry")
	}
}

func TestMarkingAndSliceGrowth(t *testing.T) {
	ib := New(DefaultConfig())
	ib.OnLLCMiss(50)
	// First dispatch of the delinquent load: critical; its producers join
	// the IST.
	if !ib.MarkDispatch(50, true, []int{40, 41}) {
		t.Fatalf("delinquent load not marked")
	}
	if ib.ISTSize() != 2 {
		t.Fatalf("IST size = %d, want 2", ib.ISTSize())
	}
	// Second level: producer 40 is now critical; its producer 30 joins.
	if !ib.MarkDispatch(40, false, []int{30}) {
		t.Fatalf("first-level producer not marked")
	}
	if !ib.MarkDispatch(30, false, nil) {
		t.Errorf("second-level producer not marked after iteration")
	}
	// Unrelated instruction stays non-critical.
	if ib.MarkDispatch(99, false, []int{98}) {
		t.Errorf("unrelated µop marked")
	}
	if ib.MarkDispatch(98, false, nil) {
		t.Errorf("producer of non-critical µop entered IST")
	}
}

func TestNonDelinquentLoadNotMarked(t *testing.T) {
	ib := New(DefaultConfig())
	if ib.MarkDispatch(10, true, []int{5}) {
		t.Errorf("load with no LLC misses marked critical")
	}
}

func TestISTCapacityBounds(t *testing.T) {
	ib := New(Config{ISTEntries: 8, ISTWays: 2, DLTEntries: 32})
	ib.OnLLCMiss(1000)
	// Push many producers through: IST can hold at most 8.
	for i := 0; i < 100; i++ {
		ib.MarkDispatch(1000, true, []int{i})
	}
	if ib.ISTSize() > 8 {
		t.Errorf("IST grew to %d entries, cap 8", ib.ISTSize())
	}
}

func TestInfiniteIST(t *testing.T) {
	ib := New(Config{ISTEntries: 0, DLTEntries: 32})
	ib.OnLLCMiss(1000)
	for i := 0; i < 5000; i++ {
		ib.MarkDispatch(1000, true, []int{i})
	}
	if ib.ISTSize() != 5000 {
		t.Errorf("infinite IST size = %d, want 5000", ib.ISTSize())
	}
	if !ib.MarkDispatch(4999, false, nil) {
		t.Errorf("infinite IST lost an entry")
	}
}

// TestNeverEvictsIsExact: the IST New builds from a config holds all of PCs
// 0..n-1 at the largest n NeverEvicts admits, and evicts one at n+1.
func TestNeverEvictsIsExact(t *testing.T) {
	for _, c := range []Config{{ISTEntries: 8, ISTWays: 2}, {ISTEntries: 1024, ISTWays: 4}, {ISTEntries: 12}, {ISTEntries: 3, ISTWays: 4}} {
		sets, ways := c.istGeometry()
		n := sets * ways
		if !c.NeverEvicts(n) || c.NeverEvicts(n+1) {
			t.Errorf("%+v: NeverEvicts(%d) = %v, NeverEvicts(%d) = %v", c, n, c.NeverEvicts(n), n+1, c.NeverEvicts(n+1))
		}
		for _, m := range []int{n, n + 1} {
			ib := New(c)
			for pc := 0; pc < m; pc++ {
				ib.ist.insert(pc)
			}
			if held := ib.ISTSize() == m; held != (m == n) {
				t.Errorf("%+v: %d of %d PCs held", c, ib.ISTSize(), m)
			}
		}
	}
	if !(Config{}).NeverEvicts(1 << 20) {
		t.Error("the unbounded IST evicts")
	}
}

func TestDLTCapacity(t *testing.T) {
	ib := New(Config{ISTEntries: 64, ISTWays: 4, DLTEntries: 4})
	for pc := 0; pc < 10; pc++ {
		for i := 0; i <= pc; i++ {
			ib.OnLLCMiss(pc)
		}
	}
	if ib.DLTSize() > 4 {
		t.Errorf("DLT size = %d, cap 4", ib.DLTSize())
	}
	// The hottest load must have survived.
	if !ib.inDLT(9) {
		t.Errorf("hottest load evicted from DLT")
	}
}
