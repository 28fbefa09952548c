package core

import (
	"encoding/json"
	"testing"
)

func sampleLoadProf() LoadProf {
	p := LoadProf{Count: 9, L1Miss: 4, LLCMiss: 3, TotalLat: 700, MLPSum: 5, HeadStall: 600, Forwards: 1}
	for _, v := range []uint64{4, 4, 4, 4, 4, 40, 200, 220, 220} {
		p.LatHist.Observe(v)
	}
	return p
}

// TestProfileRows pins the two profile layouts and their round trip.
func TestProfileRows(t *testing.T) {
	lp := sampleLoadProf()
	b, err := json.Marshal(lp)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[9,4,3,700,5,600,1,700,3,5,6,1,8,3]`; string(b) != want {
		t.Errorf("load profile row %s, want %s", b, want)
	}
	var gotL LoadProf
	if err := json.Unmarshal(b, &gotL); err != nil || gotL != lp {
		t.Errorf("load profile round trip: %v, %+v", err, gotL)
	}

	bp := BranchProf{Count: 10, Mispred: 2, Taken: 7}
	if b, err = json.Marshal(bp); err != nil || string(b) != `[10,2,7]` {
		t.Errorf("branch profile row %s (%v), want [10,2,7]", b, err)
	}
	var gotB BranchProf
	if err := json.Unmarshal(b, &gotB); err != nil || gotB != bp {
		t.Errorf("branch profile round trip: %v, %+v", err, gotB)
	}

	// Through the maps a Result holds them in, pointers and all.
	res := Result{Loads: map[int]*LoadProf{3: &lp}, Branches: map[int]*BranchProf{5: &bp}}
	if b, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil || *back.Loads[3] != lp || *back.Branches[5] != bp {
		t.Errorf("profiles inside a Result: %v, %s", err, b)
	}
	if n := testing.AllocsPerRun(100, func() {
		if gotL.UnmarshalJSON([]byte(`[9,4,3,700,5,600,1,700,3,5,6,1,8,3]`)) != nil || gotB.UnmarshalJSON([]byte(`[10,2,7]`)) != nil {
			t.Fatal("rejected")
		}
	}); n != 0 {
		t.Errorf("profile decoders allocate %v times per pair of rows, want 0", n)
	}
}

// TestProfileRowsReject: a foreign shape — the parent's keyed objects
// first of all — is an error that leaves the receiver zero.
func TestProfileRowsReject(t *testing.T) {
	for name, in := range map[string]string{
		"parent shape":     `{"Count":9,"L1Miss":4,"LLCMiss":3,"TotalLat":700,"MLPSum":5,"HeadStall":600,"Forwards":1,"LatHist":{"counts":[0,0,0,5],"sum":700}}`,
		"null":             `null`,
		"scalars only":     `[9,4,3,700,5,600,1]`,
		"short":            `[9,4,3]`,
		"hist without sum": `[9,4,3,700,5,600,1,3,5]`,
		"zero bucket":      `[9,4,3,700,5,600,1,700,3,0]`,
		"bucket 24":        `[9,4,3,700,5,600,1,700,24,1]`,
		"negative":         `[9,-4,3,700,5,600,1,700]`,
		"nested hist":      `[9,4,3,700,5,600,1,[700,3,5]]`,
	} {
		p := sampleLoadProf()
		if err := json.Unmarshal([]byte(in), &p); err == nil {
			t.Errorf("load profile %s: %s decoded to %+v", name, in, p)
		}
		if p != (LoadProf{}) {
			t.Errorf("load profile %s: rejected row left the receiver %+v, want zero", name, p)
		}
	}
	for name, in := range map[string]string{
		"parent shape": `{"Count":10,"Mispred":2,"Taken":7}`,
		"null":         `null`,
		"two":          `[10,2]`,
		"four":         `[10,2,7,0]`,
		"fraction":     `[10,2,7.5]`,
	} {
		p := BranchProf{Count: 1, Mispred: 1, Taken: 1}
		if err := json.Unmarshal([]byte(in), &p); err == nil {
			t.Errorf("branch profile %s: %s decoded to %+v", name, in, p)
		}
		if p != (BranchProf{}) {
			t.Errorf("branch profile %s: rejected row left the receiver %+v, want zero", name, p)
		}
	}
}
