// Package metrics is the simulator's cycle-attribution and telemetry
// layer. It answers "where do the cycles go?": every commit slot of every
// simulated cycle is either a committed µop or attributed to exactly one
// top-down stall bucket (frontend starvation, branch-redirect recovery,
// memory-bound split by serving level, core-bound split by blocked
// resource), so the bucket totals partition Cycles × CommitWidth exactly.
// Alongside the breakdown it provides power-of-two histograms for event
// latencies (per-PC load latency, DRAM latency, MLP at miss issue) and
// sampled structure occupancies (ROB/RS/LQ/SQ/MSHR).
//
// Everything here is fixed-size and allocation-free on the observe path:
// a Breakdown is one array of counters, a Hist is one array of counters,
// and Observe is a shift-class index plus an increment, so the core can
// leave attribution permanently enabled without hurting host throughput.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
)

// Bucket identifies one top-down stall class for a non-committing commit
// slot. The taxonomy follows the ROB-head view: when the pipeline cannot
// retire, the reason is read off the instruction blocking the ROB head
// (or off the frontend when the ROB is empty).
type Bucket uint8

// Stall buckets. Memory-bound buckets are split by the level that serves
// (or is serving) the blocking load; core-bound buckets are split by the
// backend resource observed blocking dispatch while the head waits on
// producers, falling back to plain dependency/execution latency.
const (
	// Frontend: the ROB is empty and fetch could not supply µops
	// (icache miss, fetch-queue drain, frontend pipeline depth).
	Frontend Bucket = iota
	// BranchRedirect: the ROB is empty because the machine is recovering
	// from a mispredicted branch (resolution wait or redirect penalty).
	BranchRedirect
	// MemL1: the ROB head is a load in flight served by the L1D
	// (including store-to-load forwards).
	MemL1
	// MemLLC: the ROB head is a load in flight served by the LLC.
	MemLLC
	// MemDRAM: the ROB head is a load in flight served by DRAM — the
	// bucket CRISP exists to shrink.
	MemDRAM
	// CoreROBFull: the head waits on producers while the ROB is full
	// (window-limited).
	CoreROBFull
	// CoreRSFull: the head waits on producers while the reservation
	// station had no free slot at dispatch.
	CoreRSFull
	// CoreLQFull: as CoreRSFull, for a full load queue.
	CoreLQFull
	// CoreSQFull: as CoreRSFull, for a full store queue.
	CoreSQFull
	// CorePort: the head is ready but lost issue-port or selection
	// bandwidth.
	CorePort
	// CoreDep: the head waits on register/store producers with no
	// resource backpressure observed.
	CoreDep
	// CoreExec: the head has issued and is covering a non-load execution
	// latency (ALU, store address, long-latency arithmetic).
	CoreExec
	// NumBuckets is the number of stall buckets.
	NumBuckets = iota
)

var bucketNames = [NumBuckets]string{
	"frontend",
	"branch_redirect",
	"mem_l1",
	"mem_llc",
	"mem_dram",
	"core_rob_full",
	"core_rs_full",
	"core_lq_full",
	"core_sq_full",
	"core_port",
	"core_dep",
	"core_exec",
}

// String returns the bucket's stable snake_case name (its key in a
// breakdown's JSON).
func (b Bucket) String() string {
	if int(b) < len(bucketNames) {
		return bucketNames[b]
	}
	return fmt.Sprintf("bucket_%d", int(b))
}

// Breakdown is the per-run cycle accounting: Committed counts commit
// slots that retired a µop, Stalls[b] counts non-committing slots
// attributed to bucket b. By construction the core attributes exactly
// CommitWidth slots per cycle, so Total() == Cycles × CommitWidth and
// Committed equals the committed µop count.
type Breakdown struct {
	Committed uint64
	Stalls    [NumBuckets]uint64
}

// Total returns all attributed commit slots.
func (b *Breakdown) Total() uint64 {
	t := b.Committed
	for _, s := range b.Stalls {
		t += s
	}
	return t
}

// StallSlots returns the non-committing slot total.
func (b *Breakdown) StallSlots() uint64 { return b.Total() - b.Committed }

// Frac returns bucket's share of all commit slots, in [0, 1].
func (b *Breakdown) Frac(bucket Bucket) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Stalls[bucket]) / float64(t)
}

// CommittedFrac returns the committed share of all commit slots — the
// machine's slot utilization (IPC / CommitWidth).
func (b *Breakdown) CommittedFrac() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Committed) / float64(t)
}

// Add accumulates o into b (aggregating runs).
func (b *Breakdown) Add(o *Breakdown) {
	b.Committed += o.Committed
	for i := range b.Stalls {
		b.Stalls[i] += o.Stalls[i]
	}
}

// breakdownKeys are a breakdown's JSON keys, sorted as json.Marshal
// sorted the map this encoding was first written from.
var breakdownKeys = func() []string {
	keys := append(bucketNames[:NumBuckets:NumBuckets], "committed")
	sort.Strings(keys)
	return keys
}()

// counter returns the counter a JSON key names, or nil.
func (b *Breakdown) counter(key string) *uint64 {
	if key == "committed" {
		return &b.Committed
	}
	for i, n := range bucketNames {
		if n == key {
			return &b.Stalls[i]
		}
	}
	return nil
}

// MarshalJSON encodes the breakdown with stable named keys
// ({"branch_redirect": N, "committed": N, ...}) so JSONL consumers never
// depend on bucket ordinals.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	dst := []byte{'{'}
	for i, k := range breakdownKeys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, '"'), k...), '"', ':')
		dst = strconv.AppendUint(dst, *b.counter(k), 10)
	}
	return append(dst, '}'), nil
}

// UnmarshalJSON decodes the named-key form written by MarshalJSON (see
// Reader.Breakdown); on an error b is left zero.
func (b *Breakdown) UnmarshalJSON(data []byte) error {
	r := NewReader(data)
	if r.Breakdown(b); r.End() != nil {
		*b = Breakdown{}
	}
	return r.err
}

// Breakdown reads the named-key form into b. A key that names no counter
// is ignored (forward compatibility) but must still hold an unsigned
// integer; a missing key loads as zero.
func (r *Reader) Breakdown(b *Breakdown) {
	*b = Breakdown{}
	r.Object(func(key []byte) {
		if v, p := r.Uint(), b.counter(string(key)); p != nil {
			*p = v
		}
	})
}

// HistBuckets is the number of power-of-two histogram buckets: bucket 0
// counts zero observations, bucket i ≥ 1 counts values in
// [2^(i-1), 2^i). The top bucket absorbs everything ≥ 2^(HistBuckets-2),
// comfortably above any cycle latency or occupancy the simulator emits.
const HistBuckets = 24

// Hist is a fixed-size power-of-two histogram with an exact sum, so mean
// values need no bucket approximation. The zero value is ready to use.
// Its JSON form is the flat row of row.go, not these fields.
type Hist struct {
	Counts [HistBuckets]uint64
	Sum    uint64
}

// histBucket returns the bucket index for v.
func histBucket(v uint64) int {
	b := bits.Len64(v) // 0 for v==0, k for v in [2^(k-1), 2^k)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Counts[histBucket(v)]++
	h.Sum += v
}

// Total returns the number of observations.
func (h *Hist) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Mean returns the exact mean of all observations (0 when empty).
func (h *Hist) Mean() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Sum) / float64(t)
}

// BucketBounds returns the half-open value range [lo, hi) counted by
// bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 1
	}
	lo = uint64(1) << uint(i-1)
	if i == HistBuckets-1 {
		return lo, ^uint64(0)
	}
	return lo, lo << 1
}

// Quantile returns an upper bound on the q-quantile (the exclusive upper
// edge of the bucket holding it). q outside (0, 1] is clamped.
func (h *Hist) Quantile(q float64) uint64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(t))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			_, hi := BucketBounds(i)
			return hi - 1
		}
	}
	_, hi := BucketBounds(HistBuckets - 1)
	return hi
}

// Add accumulates o into h.
func (h *Hist) Add(o *Hist) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Sum += o.Sum
}

// Hists bundles the run-level histograms the core maintains: event
// histograms observed at execution, and occupancy histograms sampled
// every few hundred cycles.
type Hists struct {
	// LoadLat is the load-to-use latency of every executed load.
	LoadLat Hist `json:"load_lat"`
	// DRAMLat is the latency of DRAM-served loads only.
	DRAMLat Hist `json:"dram_lat"`
	// MLPAtMiss is the number of outstanding DRAM misses observed when a
	// DRAM-served load issues (memory-level parallelism at miss time).
	MLPAtMiss Hist `json:"mlp_at_miss"`
	// Occupancy samples, taken every OccSampleEvery cycles.
	OccROB  Hist `json:"occ_rob"`
	OccRS   Hist `json:"occ_rs"`
	OccLQ   Hist `json:"occ_lq"`
	OccSQ   Hist `json:"occ_sq"`
	OccMSHR Hist `json:"occ_mshr"`
}

// Add accumulates o into h.
func (h *Hists) Add(o *Hists) {
	h.LoadLat.Add(&o.LoadLat)
	h.DRAMLat.Add(&o.DRAMLat)
	h.MLPAtMiss.Add(&o.MLPAtMiss)
	h.OccROB.Add(&o.OccROB)
	h.OccRS.Add(&o.OccRS)
	h.OccLQ.Add(&o.OccLQ)
	h.OccSQ.Add(&o.OccSQ)
	h.OccMSHR.Add(&o.OccMSHR)
}
