package metrics

import (
	"encoding/json"
	"testing"
)

func TestBucketNamesStable(t *testing.T) {
	seen := map[string]bool{}
	for i, n := range bucketNames {
		if n == "" {
			t.Errorf("bucket %d has no name", i)
		}
		if seen[n] {
			t.Errorf("duplicate bucket name %q", n)
		}
		seen[n] = true
		if Bucket(i).String() != n {
			t.Errorf("Bucket(%d).String() = %q, want %q", i, Bucket(i).String(), n)
		}
	}
	if MemDRAM.String() != "mem_dram" {
		t.Errorf("MemDRAM name = %q", MemDRAM.String())
	}
}

func TestBreakdownTotalsAndFractions(t *testing.T) {
	var b Breakdown
	b.Committed = 60
	b.Stalls[MemDRAM] = 30
	b.Stalls[Frontend] = 10
	if b.Total() != 100 {
		t.Fatalf("Total = %d, want 100", b.Total())
	}
	if b.StallSlots() != 40 {
		t.Errorf("StallSlots = %d, want 40", b.StallSlots())
	}
	if got := b.Frac(MemDRAM); got != 0.3 {
		t.Errorf("Frac(MemDRAM) = %v, want 0.3", got)
	}
	if got := b.CommittedFrac(); got != 0.6 {
		t.Errorf("CommittedFrac = %v, want 0.6", got)
	}
	var zero Breakdown
	if zero.Frac(MemDRAM) != 0 || zero.CommittedFrac() != 0 {
		t.Errorf("zero-value fractions not zero")
	}
}

func TestBreakdownJSONRoundTrip(t *testing.T) {
	var b Breakdown
	b.Committed = 7
	for i := range b.Stalls {
		b.Stalls[i] = uint64(i * 11)
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	// Named keys, not positional.
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["committed"] != 7 || m["mem_dram"] != uint64(MemDRAM)*11 {
		t.Fatalf("marshaled keys wrong: %v", m)
	}
	var got Breakdown
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Errorf("round trip: got %+v want %+v", got, b)
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	var h Hist
	h.Observe(0)       // bucket 0
	h.Observe(1)       // bucket 1
	h.Observe(2)       // bucket 2
	h.Observe(3)       // bucket 2
	h.Observe(4)       // bucket 3
	h.Observe(1 << 40) // clamps to top bucket
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, HistBuckets - 1: 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, c, want[i])
		}
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d, want 6", h.Total())
	}
	if h.Sum != 0+1+2+3+4+(1<<40) {
		t.Errorf("Sum = %d", h.Sum)
	}
	for i := 0; i < HistBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo >= hi {
			t.Errorf("bucket %d bounds [%d, %d) empty", i, lo, hi)
		}
		if i > 0 {
			if got := histBucket(lo); got != i {
				t.Errorf("histBucket(%d) = %d, want %d", lo, got, i)
			}
		}
	}
}

func TestHistMeanAndQuantile(t *testing.T) {
	var h Hist
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty hist mean/quantile not zero")
	}
	for i := 0; i < 90; i++ {
		h.Observe(4) // bucket 3: [4, 8)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1024) // bucket 11
	}
	if got := h.Mean(); got != (90*4+10*1024)/100.0 {
		t.Errorf("Mean = %v", got)
	}
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("Quantile(0.5) = %d, want 7 (upper edge of [4,8))", got)
	}
	if got := h.Quantile(0.99); got != 2047 {
		t.Errorf("Quantile(0.99) = %d, want 2047", got)
	}
}

func TestHistAndBreakdownAdd(t *testing.T) {
	var a, b Hist
	a.Observe(5)
	b.Observe(100)
	a.Add(&b)
	if a.Total() != 2 || a.Sum != 105 {
		t.Errorf("Add: total %d sum %d", a.Total(), a.Sum)
	}
	var x, y Breakdown
	x.Committed, y.Committed = 1, 2
	x.Stalls[CoreDep], y.Stalls[CoreDep] = 10, 20
	x.Add(&y)
	if x.Committed != 3 || x.Stalls[CoreDep] != 30 {
		t.Errorf("Breakdown.Add: %+v", x)
	}
	var hs, ho Hists
	hs.LoadLat.Observe(3)
	ho.LoadLat.Observe(4)
	ho.OccROB.Observe(17)
	hs.Add(&ho)
	if hs.LoadLat.Total() != 2 || hs.OccROB.Total() != 1 {
		t.Errorf("Hists.Add: loadlat %d occrob %d", hs.LoadLat.Total(), hs.OccROB.Total())
	}
}
