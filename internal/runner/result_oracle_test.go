package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/dram"
	"crisp/internal/metrics"
	"crisp/internal/sim"
)

// The oracles of a result's encoding, as mirror types of core.Result and
// sim.MultiResult. Each mirror keeps two earlier codecs verbatim:
//
//   - Marshalling: the encoding the rows replaced. Up to crisp-sim-5
//     Hist, LoadProf and BranchProf were plain structs under
//     encoding/json's reflection — a Hist was {"counts":[24 numbers],
//     "sum":N} — and the mirrors still marshal so, giving the bytes that
//     simulator wrote for the same statistics. Nothing a result carried
//     then may be missing after a trip through the rows.
//   - Unmarshalling: the decode the metrics.Reader replaced, json.Unmarshal
//     reflecting over the result with each row type's own hand-written
//     UnmarshalJSON and the map-based Breakdown one. Whatever the reader
//     accepts, this decode must accept as the same value.

type refHist struct {
	Counts [metrics.HistBuckets]uint64 `json:"counts"`
	Sum    uint64                      `json:"sum"`
}

// refParseRow is the row parser the reader's Row replaced.
func refParseRow(data []byte, dst []uint64) (int, error) {
	end := len(data) - 1
	if end < 1 || data[0] != '[' || data[end] != ']' {
		return 0, errRefNotRow
	}
	n := 0
	for i := 1; ; i++ { // i is at the first byte of an element
		start := i
		var v uint64
		for ; data[i]-'0' <= 9; i++ { // stops at the closing bracket at the latest
			d := uint64(data[i] - '0')
			if v > (^uint64(0)-d)/10 {
				return 0, fmt.Errorf("metrics: row element %d overflows uint64", n)
			}
			v = v*10 + d
		}
		if i == start || (data[start] == '0' && i-start > 1) {
			return 0, errRefNotRow
		}
		if n == len(dst) {
			return 0, fmt.Errorf("metrics: row longer than %d elements", len(dst))
		}
		dst[n] = v
		n++
		if i == end {
			return n, nil
		}
		if data[i] != ',' {
			return 0, errRefNotRow
		}
	}
}

var errRefNotRow = errors.New("metrics: not a row of unsigned decimals")

func (h *refHist) UnmarshalJSON(data []byte) error {
	*h = refHist{}
	var buf [metrics.HistRowMax]uint64
	n, err := refParseRow(data, buf[:])
	if err != nil {
		return err
	}
	return h.setRow(buf[:n])
}

func (h *refHist) setRow(row []uint64) error {
	var m metrics.Hist
	if err := m.SetRow(row); err != nil {
		return err
	}
	*h = refHist{Counts: m.Counts, Sum: m.Sum}
	return nil
}

func (p *refLoadProf) UnmarshalJSON(data []byte) error {
	*p = refLoadProf{}
	var buf [7 + metrics.HistRowMax]uint64
	n, err := refParseRow(data, buf[:])
	if err != nil {
		return err
	}
	if n <= 7 {
		return fmt.Errorf("core: load profile row of %d elements, want at least %d", n, 8)
	}
	var h refHist
	if err := h.setRow(buf[7:n]); err != nil {
		return err
	}
	*p = refLoadProf{Count: buf[0], L1Miss: buf[1], LLCMiss: buf[2], TotalLat: buf[3],
		MLPSum: buf[4], HeadStall: buf[5], Forwards: buf[6], LatHist: h}
	return nil
}

func (p *refBranchProf) UnmarshalJSON(data []byte) error {
	*p = refBranchProf{}
	var buf [3]uint64
	n, err := refParseRow(data, buf[:])
	if err != nil {
		return err
	}
	if n != len(buf) {
		return fmt.Errorf("core: branch profile row of %d elements, want %d", n, len(buf))
	}
	*p = refBranchProf{Count: buf[0], Mispred: buf[1], Taken: buf[2]}
	return nil
}

// refBreakdown is metrics.Breakdown with the map-based codec its
// MarshalJSON and UnmarshalJSON had before the reader.
type refBreakdown metrics.Breakdown

func (b refBreakdown) MarshalJSON() ([]byte, error) {
	m := make(map[string]uint64, metrics.NumBuckets+1)
	m["committed"] = b.Committed
	for i := range b.Stalls {
		m[metrics.Bucket(i).String()] = b.Stalls[i]
	}
	return json.Marshal(m)
}

func (b *refBreakdown) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*b = refBreakdown{Committed: m["committed"]}
	for i := range b.Stalls {
		b.Stalls[i] = m[metrics.Bucket(i).String()]
	}
	return nil
}

type refHists struct {
	LoadLat   refHist `json:"load_lat"`
	DRAMLat   refHist `json:"dram_lat"`
	MLPAtMiss refHist `json:"mlp_at_miss"`
	OccROB    refHist `json:"occ_rob"`
	OccRS     refHist `json:"occ_rs"`
	OccLQ     refHist `json:"occ_lq"`
	OccSQ     refHist `json:"occ_sq"`
	OccMSHR   refHist `json:"occ_mshr"`
}

type refLoadProf struct {
	Count     uint64
	L1Miss    uint64
	LLCMiss   uint64
	TotalLat  uint64
	MLPSum    uint64
	HeadStall uint64
	Forwards  uint64
	LatHist   refHist
}

type refBranchProf struct {
	Count   uint64
	Mispred uint64
	Taken   uint64
}

type refResult struct {
	Cycles uint64
	Insts  uint64

	BranchExecs     uint64
	BranchMispreds  uint64
	BTBMisses       uint64
	FetchStallCycle uint64

	ROBHeadStalls  uint64
	LoadExecs      uint64
	StoreExecs     uint64
	CriticalExecs  uint64
	IssuedCritical uint64
	QueueJumpSum   uint64

	Breakdown refBreakdown
	Hists     refHists

	L1I, L1D, LLC cache.Stats
	DRAMReads     uint64
	DRAMAvgLat    float64

	Loads    map[int]*refLoadProf
	Branches map[int]*refBranchProf

	UPCWindows []float64

	SkippedCycles uint64

	HostNS     int64
	HostAllocs uint64
	HostIters  uint64

	CoInsts  uint64 `json:",omitempty"`
	CoCycles uint64 `json:",omitempty"`

	SampledWindows int    `json:",omitempty"`
	FFInsts        uint64 `json:",omitempty"`
	HostFFNS       int64  `json:",omitempty"`
}

type refMultiResult struct {
	Cores []*refResult `json:"cores"`

	LLC         cache.Stats   `json:"llc"`
	LLCPerCore  []cache.Stats `json:"llc_per_core"`
	DRAM        dram.Stats    `json:"dram"`
	DRAMPerCore []dram.Stats  `json:"dram_per_core"`

	HostNS int64 `json:"host_ns"`

	SampledWindows int    `json:"sampled_windows,omitempty"`
	FFInsts        uint64 `json:"ff_insts,omitempty"`
	HostFFNS       int64  `json:"host_ff_ns,omitempty"`
}

// mirrorInto copies src into dst, one a mirror of the other's type:
// identical types are assigned, mirrored structs copied field by field.
// It fails the test when the two have drifted apart — a field added to
// core.Result must be added to refResult — so the mirrors cannot silently
// stop covering what a result carries. Only Hist's json tags may differ:
// they are the encoding the rows replaced.
func mirrorInto(t testing.TB, dst, src reflect.Value) {
	t.Helper()
	if dst.Type() == src.Type() {
		dst.Set(src)
		return
	}
	if dst.Kind() != src.Kind() {
		t.Fatalf("mirror %s is a %s, %s is a %s", dst.Type(), dst.Kind(), src.Type(), src.Kind())
	}
	switch dst.Kind() {
	case reflect.Struct:
		if dst.NumField() != src.NumField() {
			t.Fatalf("mirror %s has %d fields, %s has %d", dst.Type(), dst.NumField(), src.Type(), src.NumField())
		}
		hist := reflect.TypeOf(metrics.Hist{})
		for i := 0; i < dst.NumField(); i++ {
			df, sf := dst.Type().Field(i), src.Type().Field(i)
			if df.Name != sf.Name || (df.Tag != sf.Tag && src.Type() != hist && dst.Type() != hist) {
				t.Fatalf("mirror field %s.%s `%s` does not match %s.%s `%s`", dst.Type(), df.Name, df.Tag, src.Type(), sf.Name, sf.Tag)
			}
			mirrorInto(t, dst.Field(i), src.Field(i))
		}
	case reflect.Pointer:
		if !src.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
			mirrorInto(t, dst.Elem(), src.Elem())
		}
	case reflect.Map:
		if !src.IsNil() {
			dst.Set(reflect.MakeMapWithSize(dst.Type(), src.Len()))
			for it := src.MapRange(); it.Next(); {
				v := reflect.New(dst.Type().Elem()).Elem()
				mirrorInto(t, v, it.Value())
				dst.SetMapIndex(it.Key(), v)
			}
		}
	case reflect.Slice:
		if !src.IsNil() {
			dst.Set(reflect.MakeSlice(dst.Type(), src.Len(), src.Len()))
			for i := 0; i < src.Len(); i++ {
				mirrorInto(t, dst.Index(i), src.Index(i))
			}
		}
	default:
		t.Fatalf("mirror %s cannot hold a %s", dst.Type(), src.Type())
	}
}

// mirrorOf returns a new mirror for v (a *core.Result or a
// *sim.MultiResult).
func mirrorOf(t testing.TB, v any) any {
	switch v.(type) {
	case *core.Result:
		return new(refResult)
	case *sim.MultiResult:
		return new(refMultiResult)
	}
	t.Fatalf("no mirror for %T", v)
	return nil
}

// refJSON is the crisp-sim-5 encoding of v (a *core.Result or a
// *sim.MultiResult).
func refJSON(t testing.TB, v any) []byte {
	t.Helper()
	ref := mirrorOf(t, v)
	mirrorInto(t, reflect.ValueOf(ref).Elem(), reflect.ValueOf(v).Elem())
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refDecode decodes data as the parent's reflect-driven decode did and
// returns the value as a *T.
func refDecode[T any](t testing.TB, data []byte) (*T, error) {
	t.Helper()
	v := new(T)
	ref := mirrorOf(t, v)
	if err := json.Unmarshal(data, ref); err != nil {
		return nil, err
	}
	mirrorInto(t, reflect.ValueOf(v).Elem(), reflect.ValueOf(ref).Elem())
	return v, nil
}

// checkLossless: r survives encode → decode exactly, through the decode
// a store hit or a reply makes (Unmarshal), through json.Unmarshal and
// through the parent's decode; the decoded value still marshals, in the
// old encoding, to the old bytes of r; and encode is a fixed point of
// encode∘decode.
func checkLossless[T any](t *testing.T, name string, r *T) {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d, viaJSON := new(T), new(T)
	if err := Unmarshal(b, d); err != nil {
		t.Fatalf("%s: own encoding rejected: %v", name, err)
	}
	if err := json.Unmarshal(b, viaJSON); err != nil {
		t.Fatalf("%s: own encoding rejected by json.Unmarshal: %v", name, err)
	}
	viaRef, err := refDecode[T](t, b)
	if err != nil {
		t.Fatalf("%s: own encoding rejected by the parent's decode: %v", name, err)
	}
	for decoder, got := range map[string]*T{"Unmarshal": d, "json.Unmarshal": viaJSON, "the parent's decode": viaRef} {
		if !reflect.DeepEqual(got, r) {
			t.Errorf("%s: decode(encode(r)) through %s differs from r", name, decoder)
		}
	}
	old := refJSON(t, r)
	if got := refJSON(t, d); !bytes.Equal(got, old) {
		t.Errorf("%s: the decoded result's crisp-sim-5 bytes differ from the original's (%d vs %d bytes)", name, len(got), len(old))
	}
	again, err := json.Marshal(d)
	if err != nil || !bytes.Equal(again, b) {
		t.Errorf("%s: encode(decode(encode(r))) differs from encode(r) (%v)", name, err)
	}
	if len(b) >= len(old) {
		t.Errorf("%s: rows take %d bytes, the keyed objects took %d", name, len(b), len(old))
	}
	t.Logf("%-22s %6d -> %6d bytes", name, len(old), len(b))
}

// TestResultEncodingLossless runs the oracle over real results: eight
// applications under both schedulers as the served workload sizes them, a
// sampled run (merged windows, host fast-forward fields) and a 2-core
// co-run (per-core results inside a MultiResult, co-phase counters).
func TestResultEncodingLossless(t *testing.T) {
	r := newRunner(t, Options{Workers: 2})
	ctx := context.Background()
	for _, w := range []string{"mcf", "xalancbmk", "moses", "lbm", "omnetpp", "bwaves", "xhpcg", "memcached"} {
		base := sim.RunSpec{Workload: w, Insts: 40_000, Prefetcher: sim.PFStride}
		for i, spec := range []sim.RunSpec{base, base.WithCrisp(crisp.DefaultOptions())} {
			res, err := r.Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Loads) == 0 || len(res.Branches) == 0 || res.Hists.LoadLat.Total() == 0 {
				t.Fatalf("%s: a result without profiles proves nothing", w)
			}
			checkLossless(t, w+"/"+[]string{"ooo", "crisp"}[i], res)
		}
	}
	sampled, err := r.Run(ctx, sim.RunSpec{Workload: "mcf", Prefetcher: sim.PFStride,
		Sampling: &sim.Sampling{Warm: 15_000, Window: 5_000, Count: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.SampledWindows != 3 {
		t.Fatalf("sampled run merged %d windows, want 3", sampled.SampledWindows)
	}
	checkLossless(t, "mcf/sampled", sampled)
	multi, err := r.RunMulti(ctx, sim.MultiSpec{Cores: []sim.RunSpec{
		{Workload: "mcf", Insts: 40_000, Prefetcher: sim.PFStride},
		{Workload: "lbm", Insts: 40_000, Prefetcher: sim.PFStride},
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkLossless(t, "mcf+lbm/multi", multi)
}

// FuzzResultJSON feeds arbitrary bytes to the decoder every stored entry
// and every reply goes through. It must never panic; it must not allocate
// more than a constant per input byte (the rows parse into stack buffers
// and a row that does not fit is refused); a result it accepts, the
// parent's reflect-driven decode accepts as the same value; and that
// result is a fixed point: its encoding decodes to an equal value and
// encodes to itself, so no two stored byte strings a reader would
// re-publish stand for one result.
func FuzzResultJSON(f *testing.F) {
	golden, err := os.ReadFile(resultGolden)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden) // a real result
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Cycles":12,"Insts":7,"Hists":{"load_lat":[0],"occ_rob":[9,0,1,23,2]},"Loads":{"3":[1,0,0,4,0,0,0,4,3,1],"4":null},"Branches":{"-1":[18446744073709551615,0,1]},"UPCWindows":[1.5,-0,1e-9]}`))
	f.Add([]byte(`{"Hists":{"load_lat":{"counts":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum":0}}}`))
	f.Add([]byte(`{"Loads":{"1":[1,2,3,4,5,6,7,8,24,1]},"Branches":{"1":[1,2]}}`))
	f.Add([]byte(`{"Hists":{"dram_lat":[5,3,0],"occ_rs":[5,3,1,2,1],"occ_lq":[18446744073709551616],"occ_sq":[01],"occ_mshr":[1,2]}}`))
	f.Add([]byte(`{"Hists":{"load_lat":[1]},"Hists":{"dram_lat":[2]},"Loads":{},"Branches":null,"UPCWindows":[],"L1D":{"Hits":1},"L1D":{"Misses":2}}` + "\n"))
	f.Add([]byte(`{"Loads":{"1":[1,2,3,4,5,6,7,8]},"Loads":{"-2":[1,2,3,4,5,6,7,8]},"Breakdown":{"committed":1,"x":2},"Breakdown":{"mem_dram":3},"HostNS":-9223372036854775808}`))
	f.Add(golden[:len(golden)/2])

	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, data []byte) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var res core.Result
		err := Unmarshal(data, &res)
		runtime.ReadMemStats(&ms)
		// 64 B per input byte: the densest accepted input is a map entry
		// of ~20 bytes that costs a 256-byte LoadProf and its map slot. The
		// slack covers error values and the fuzzing engine's own traffic.
		if got, budget := ms.TotalAlloc-before, uint64(64*len(data)+64<<10); got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), got, budget)
		}
		if err != nil {
			return
		}
		want, err := refDecode[core.Result](t, data)
		if err != nil {
			t.Fatalf("accepted %q, which the parent's decode rejects: %v", data, err)
		}
		if !reflect.DeepEqual(&res, want) {
			t.Fatalf("accepted %q as %+v, the parent's decode reads %+v", data, res, *want)
		}
		b, err := json.Marshal(&res)
		if err != nil {
			t.Fatalf("accepted result does not marshal: %v", err)
		}
		var again core.Result
		if err := Unmarshal(b, &again); err != nil {
			t.Fatalf("accepted %q, but its re-marshalled form %s is rejected: %v", data, b, err)
		}
		if !reflect.DeepEqual(&again, &res) {
			t.Fatalf("accepted %q: value changes over a marshal/decode round trip (%s)", data, b)
		}
		if b2, err := json.Marshal(&again); err != nil || !bytes.Equal(b2, b) {
			t.Fatalf("accepted %q: encoding %s is not a fixed point (%v)", data, b, err)
		}
	})
}
