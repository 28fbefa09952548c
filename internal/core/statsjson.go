package core

import (
	"errors"
	"fmt"

	"crisp/internal/cache"
	"crisp/internal/metrics"
)

// The per-PC profiles encode as flat integer rows through the appender
// metrics.Hist uses (internal/metrics/row.go): a result holds one LoadProf
// per static load, so their field names and zero latency buckets were most
// of its bytes and of a reader's decode time. A Result is read back by
// hand, in one pass of a metrics.Reader: no reflection, no validating
// pre-scan, the rows parsed into stack buffers and checked as they land.
// It accepts exactly what json.Marshal writes.

// loadProfScalars is the number of counters before LatHist's row.
const loadProfScalars = 7

// MarshalJSON encodes the profile as [Count, L1Miss, LLCMiss, TotalLat,
// MLPSum, HeadStall, Forwards, <LatHist's row>].
func (p LoadProf) MarshalJSON() ([]byte, error) {
	var buf [loadProfScalars + metrics.HistRowMax]uint64
	row := append(buf[:0], p.Count, p.L1Miss, p.LLCMiss, p.TotalLat, p.MLPSum, p.HeadStall, p.Forwards)
	return metrics.AppendRow(make([]byte, 0, 96), p.LatHist.AppendRow(row)), nil
}

// MarshalJSON encodes the profile as [Count, Mispred, Taken].
func (p BranchProf) MarshalJSON() ([]byte, error) {
	return metrics.AppendRow(make([]byte, 0, 32), []uint64{p.Count, p.Mispred, p.Taken}), nil
}

var errUnknownField = errors.New("unknown field")

// UnmarshalJSON decodes what json.Marshal writes for a Result and nothing
// else: every field by its name, no other key, no whitespace. A missing
// field is zero, a repeated one is read again as encoding/json would read
// it, and on an error res is left zero. It checks all of data itself, so
// it may be called without json.Unmarshal's validating pass.
func (res *Result) UnmarshalJSON(data []byte) error {
	*res = Result{}
	r := metrics.NewReader(data)
	res.read(&r)
	err := r.End()
	if err != nil {
		*res = Result{}
	}
	return err
}

func (res *Result) read(r *metrics.Reader) {
	counters := []counter{{"Cycles", &res.Cycles}, {"Insts", &res.Insts},
		{"BranchExecs", &res.BranchExecs}, {"BranchMispreds", &res.BranchMispreds}, {"BTBMisses", &res.BTBMisses},
		{"FetchStallCycle", &res.FetchStallCycle}, {"ROBHeadStalls", &res.ROBHeadStalls}, {"LoadExecs", &res.LoadExecs},
		{"StoreExecs", &res.StoreExecs}, {"CriticalExecs", &res.CriticalExecs}, {"IssuedCritical", &res.IssuedCritical},
		{"QueueJumpSum", &res.QueueJumpSum}, {"DRAMReads", &res.DRAMReads}, {"SkippedCycles", &res.SkippedCycles},
		{"HostAllocs", &res.HostAllocs}, {"HostIters", &res.HostIters}, {"CoInsts", &res.CoInsts},
		{"CoCycles", &res.CoCycles}, {"FFInsts", &res.FFInsts}}
	r.Object(func(key []byte) {
		switch string(key) {
		case "Breakdown":
			r.Breakdown(&res.Breakdown)
		case "Hists":
			r.Hists(&res.Hists)
		case "L1I":
			readCacheStats(r, &res.L1I)
		case "L1D":
			readCacheStats(r, &res.L1D)
		case "LLC":
			readCacheStats(r, &res.LLC)
		case "DRAMAvgLat":
			res.DRAMAvgLat = r.Float()
		case "Loads":
			if r.Null() {
				res.Loads = nil
				return
			}
			if res.Loads == nil { // a repeated key adds to the map, as in encoding/json
				res.Loads = make(map[int]*LoadProf)
			}
			r.Object(func(key []byte) { res.Loads[r.IntKey(key)] = readLoadProf(r) })
		case "Branches":
			if r.Null() {
				res.Branches = nil
				return
			}
			if res.Branches == nil {
				res.Branches = make(map[int]*BranchProf)
			}
			r.Object(func(key []byte) { res.Branches[r.IntKey(key)] = readBranchProf(r) })
		case "UPCWindows":
			if res.UPCWindows = nil; !r.Null() {
				res.UPCWindows = []float64{}
				r.Array(func() { res.UPCWindows = append(res.UPCWindows, r.Float()) })
			}
		case "HostNS":
			res.HostNS = r.Int()
		case "SampledWindows":
			res.SampledWindows = int(r.Int())
		case "HostFFNS":
			res.HostFFNS = r.Int()
		default:
			if !setCounter(r, key, counters) {
				r.Fail(errUnknownField)
			}
		}
	})
}

// counter pairs a JSON key with the unsigned field it names.
type counter struct {
	key string
	p   *uint64
}

// setCounter reads the value of key into the counter of cs it names, and
// reports whether one does.
func setCounter(r *metrics.Reader, key []byte, cs []counter) bool {
	for _, c := range cs {
		if string(key) == c.key {
			*c.p = r.Uint()
			return true
		}
	}
	return false
}

// readLoadProf reads the row LoadProf.MarshalJSON writes.
func readLoadProf(r *metrics.Reader) *LoadProf {
	var buf [loadProfScalars + metrics.HistRowMax]uint64
	n := r.Row(buf[:])
	if n <= loadProfScalars {
		r.Fail(fmt.Errorf("load profile row of %d elements, want at least %d", n, loadProfScalars+1))
		return nil
	}
	p := &LoadProf{Count: buf[0], L1Miss: buf[1], LLCMiss: buf[2], TotalLat: buf[3],
		MLPSum: buf[4], HeadStall: buf[5], Forwards: buf[6]}
	if err := p.LatHist.SetRow(buf[loadProfScalars:n]); err != nil {
		r.Fail(err)
	}
	return p
}

// readBranchProf reads the row BranchProf.MarshalJSON writes.
func readBranchProf(r *metrics.Reader) *BranchProf {
	var buf [3]uint64
	if n := r.Row(buf[:]); n != len(buf) {
		r.Fail(fmt.Errorf("branch profile row of %d elements, want %d", n, len(buf)))
		return nil
	}
	return &BranchProf{Count: buf[0], Mispred: buf[1], Taken: buf[2]}
}

// readCacheStats reads a cache level's counters into s.
func readCacheStats(r *metrics.Reader, s *cache.Stats) {
	counters := []counter{{"Accesses", &s.Accesses}, {"Hits", &s.Hits}, {"Misses", &s.Misses},
		{"MergedMisses", &s.MergedMisses}, {"Writebacks", &s.Writebacks}, {"Prefetches", &s.Prefetches},
		{"PrefetchHits", &s.PrefetchHits}, {"PrefetchLate", &s.PrefetchLate}, {"MSHRStalls", &s.MSHRStalls}}
	r.Object(func(key []byte) {
		if !setCounter(r, key, counters) {
			r.Fail(errUnknownField)
		}
	})
}
