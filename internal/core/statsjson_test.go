package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func sampleLoadProf() LoadProf {
	p := LoadProf{Count: 9, L1Miss: 4, LLCMiss: 3, TotalLat: 700, MLPSum: 5, HeadStall: 600, Forwards: 1}
	for _, v := range []uint64{4, 4, 4, 4, 4, 40, 200, 220, 220} {
		p.LatHist.Observe(v)
	}
	return p
}

const (
	loadRow   = `[9,4,3,700,5,600,1,700,3,5,6,1,8,3]`
	branchRow = `[10,2,7]`
)

// profileResult is a Result whose Loads and Branches hold the two rows.
func profileResult(load, branch string) []byte {
	return []byte(`{"Cycles":12,"Loads":{"3":` + load + `},"Branches":{"-5":` + branch + `}}`)
}

// allocSink makes the allocations TestProfileRows counts as the floor
// escape, as the decoder's do.
var allocSink Result

// TestProfileRows pins the two profile layouts and their round trip
// through the maps a Result holds them in, and shows the rows cost no
// allocation beyond the maps and profiles they fill.
func TestProfileRows(t *testing.T) {
	lp, bp := sampleLoadProf(), BranchProf{Count: 10, Mispred: 2, Taken: 7}
	res := Result{Cycles: 12, Loads: map[int]*LoadProf{3: &lp}, Branches: map[int]*BranchProf{-5: &bp}}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Loads":{"3":` + loadRow + `}`, `"Branches":{"-5":` + branchRow + `}`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("result %s lacks %s", b, want)
		}
	}
	var back Result
	if err := back.UnmarshalJSON(b); err != nil || !reflect.DeepEqual(back, res) {
		t.Errorf("profiles inside a Result: %v, %+v", err, back)
	}

	in := profileResult(loadRow, branchRow)
	floor := testing.AllocsPerRun(100, func() {
		allocSink = Result{Loads: make(map[int]*LoadProf), Branches: make(map[int]*BranchProf)}
		allocSink.Loads[3], allocSink.Branches[-5] = new(LoadProf), new(BranchProf)
	})
	if n := testing.AllocsPerRun(100, func() {
		if allocSink.UnmarshalJSON(in) != nil {
			t.Fatal("rejected")
		}
	}); n != floor {
		t.Errorf("decoding a result with one row of each kind allocates %v times, its maps and profiles %v", n, floor)
	}
}

// TestProfileRowsReject: a foreign shape — the parent's keyed objects
// first of all — is an error that leaves the receiver zero.
func TestProfileRowsReject(t *testing.T) {
	for name, load := range map[string]string{
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
		checkRejected(t, "load profile "+name, profileResult(load, branchRow))
	}
	for name, branch := range map[string]string{
		"parent shape": `{"Count":10,"Mispred":2,"Taken":7}`,
		"null":         `null`,
		"two":          `[10,2]`,
		"four":         `[10,2,7,0]`,
		"fraction":     `[10,2,7.5]`,
	} {
		checkRejected(t, "branch profile "+name, profileResult(loadRow, branch))
	}
	for name, in := range map[string]string{
		"key with a plus":    `{"Loads":{"+3":` + loadRow + `}}`,
		"key with a zero":    `{"Loads":{"03":` + loadRow + `}}`,
		"key not an integer": `{"Branches":{"pc":` + branchRow + `}}`,
		"lower-case field":   `{"cycles":12}`,
		"unknown field":      `{"Cycles":12,"IPC":1}`,
		"hist out of order":  `{"Hists":{"load_lat":[5,3,1,2,1]}}`,
		"unknown hist":       `{"Hists":{"l2_lat":[0]}}`,
		"cache stat string":  `{"L1D":{"Hits":"1"}}`,
		"trailing bytes":     `{"Cycles":12}}`,
	} {
		checkRejected(t, name, []byte(in))
	}
}

func checkRejected(t *testing.T, name string, in []byte) {
	t.Helper()
	res := Result{Cycles: 1, Loads: map[int]*LoadProf{1: {}}}
	if err := res.UnmarshalJSON(in); err == nil {
		t.Errorf("%s: %s decoded to %+v", name, in, res)
	}
	if !reflect.DeepEqual(res, Result{}) {
		t.Errorf("%s: rejected result left the receiver %+v, want zero", name, res)
	}
}
