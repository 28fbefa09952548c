package cache

import "crisp/internal/dram"

// ServedBy identifies the level that serviced a data access.
type ServedBy int8

// Service levels for data accesses.
const (
	ServedL1 ServedBy = iota
	ServedLLC
	ServedDRAM
)

func (s ServedBy) String() string {
	switch s {
	case ServedL1:
		return "L1"
	case ServedLLC:
		return "LLC"
	default:
		return "DRAM"
	}
}

// HierConfig configures the Table 1 memory hierarchy.
type HierConfig struct {
	L1I  Config
	L1D  Config
	LLC  Config
	DRAM dram.Config
}

// DefaultHierConfig returns the Table 1 uncore: 32 KiB 8-way L1I (3-cycle)
// and L1D (4-cycle), 1 MiB 20-way LLC (36-cycle), DDR4-2400 single channel.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:  Config{Name: "L1I", SizeKiB: 32, Ways: 8, Latency: 3, MSHRs: 8},
		L1D:  Config{Name: "L1D", SizeKiB: 32, Ways: 8, Latency: 4, MSHRs: 16},
		LLC:  Config{Name: "LLC", SizeKiB: 1024, Ways: 20, Latency: 36, MSHRs: 32},
		DRAM: dram.DefaultConfig(),
	}
}

// Hierarchy wires L1I and L1D over a shared LLC over DRAM, tracks
// outstanding long-latency misses for MLP measurement, and attributes
// per-level service for profiling.
//
// A Hierarchy is one core's view of a SharedHierarchy: L1I/L1D are its
// own, LLC and Mem are shared with the sibling views. req identifies this
// core to the shared levels, and base offsets its addresses into a
// disjoint slice of the shared physical address space.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	LLC *Cache
	Mem *dram.DRAM

	cfg HierConfig

	req  int    // requester index at the shared LLC/DRAM
	base uint64 // physical-address offset for this core's view

	// outstanding completion cycles of in-flight DRAM-served loads, used
	// to approximate memory-level parallelism at miss time (Section 3.2).
	outstanding []uint64
}

// NewHierarchy builds the single-core machine: the one view of a one-core
// SharedHierarchy.
func NewHierarchy(cfg HierConfig) *Hierarchy { return NewSharedHierarchy(cfg, 1).Views[0] }

// Activate routes shared-level statistics and miss observers to this view's
// requester. The core calls it before each step, so that with several
// cores in one co-run every step is attributed to the core taking it.
func (h *Hierarchy) Activate() {
	h.LLC.SetRequester(h.req)
	h.Mem.SetRequester(h.req)
}

// SetMissObserver registers an LLC primary-miss callback fired only for
// this view's misses.
func (h *Hierarchy) SetMissObserver(f func(pc, lineAddr uint64)) {
	h.LLC.SetRequesterMissObserver(h.req, f)
}

// LLCStats returns this view's share of LLC activity.
func (h *Hierarchy) LLCStats() Stats { return h.LLC.RequesterStats(h.req) }

// DRAMStats returns this view's share of DRAM activity.
func (h *Hierarchy) DRAMStats() dram.Stats { return h.Mem.RequesterStats(h.req) }

// SharedHierarchy is the memory system of every simulated machine: one LLC
// and one DRAM contended by n cores, each of which sees its own Hierarchy
// view with private L1I/L1D. The single-core machine is the one-core
// system. Core i's addresses are offset by i<<40 — cores run disjoint
// address spaces (no coherence traffic to model) but collide in the shared
// LLC index and DRAM banks exactly as co-located processes do.
type SharedHierarchy struct {
	Views []*Hierarchy
	LLC   *Cache
	Mem   *dram.DRAM
}

// coreAddrStride separates per-core address spaces. A power of two far
// above any workload footprint: it is a multiple of every power-of-two
// cache-set span and of RowBytes×Banks, so each core's *intra*-core set
// and bank mapping is unchanged by the offset.
const coreAddrStride = uint64(1) << 40

// NewSharedHierarchy builds one shared LLC+DRAM and n per-core views.
func NewSharedHierarchy(cfg HierConfig, n int) *SharedHierarchy {
	mem := dram.New(cfg.DRAM)
	sh := share(cfg, New(cfg.LLC, mem), mem, n)
	for _, v := range sh.Views {
		v.L1I, v.L1D = New(cfg.L1I, sh.LLC), New(cfg.L1D, sh.LLC)
	}
	return sh
}

// share sets llc and mem up for n requesters and hangs n views off them,
// their L1s still to be built.
func share(cfg HierConfig, llc *Cache, mem *dram.DRAM, n int) *SharedHierarchy {
	mem.SetRequesters(n)
	llc.SetRequesters(n)
	sh := &SharedHierarchy{LLC: llc, Mem: mem, Views: make([]*Hierarchy, n)}
	for i := range sh.Views {
		sh.Views[i] = &Hierarchy{LLC: llc, Mem: mem, cfg: cfg, req: i, base: uint64(i) * coreAddrStride}
	}
	return sh
}

// WarmData warms the data path for addr: a tags-only touch of L1D,
// recursing into the LLC on an L1D miss. No timing, no statistics. It
// reports whether L1D already held the line, which checkpoint capture
// feeds to prefetcher training as the hit flag.
func (h *Hierarchy) WarmData(addr uint64, write bool) (l1hit bool) {
	addr += h.base
	if h.L1D.Warm(addr, write) {
		return true
	}
	h.LLC.Warm(addr, write)
	return false
}

// WarmDataShared warms the data path for a co-scheduled multi-core
// capture: like WarmData, but a store that hits L1D also dirties the
// shared LLC's copy of the line. The timed hierarchy delivers that
// dirtiness when the dirty L1D line is written back on eviction;
// tags-only warming drops L1 victims silently, so without the
// propagation the shared LLC a multi-core window restores from holds no
// dirty lines and the window performs no writebacks — erasing the DRAM
// write-bus traffic (roughly half of a streaming store neighbour's
// bandwidth) whose contention co-scheduled capture exists to model. The
// single-core warming path keeps the historical tags-only behaviour,
// pinned by the golden figures.
func (h *Hierarchy) WarmDataShared(addr uint64, write bool) (l1hit bool) {
	addr += h.base
	if h.L1D.Warm(addr, write) {
		if write {
			h.LLC.MarkDirty(addr)
		}
		return true
	}
	h.LLC.Warm(addr, write)
	return false
}

// WarmPrefetch installs a prefetched line tags-only into L1D (and into
// the LLC when L1D did not already hold it), mirroring where a demand-
// level prefetch fill would land. Checkpoint capture uses it so a warmed
// variant's cache content includes the prefetched-line population that
// dedups most suggestions in a steady-state detailed run.
func (h *Hierarchy) WarmPrefetch(addr uint64) {
	addr += h.base
	if !h.L1D.WarmPrefetch(addr) {
		h.LLC.WarmPrefetch(addr)
	}
}

// WarmInst warms the instruction path for the code line at addr and
// reports whether L1I already held it.
func (h *Hierarchy) WarmInst(addr uint64) (l1hit bool) {
	addr += h.base
	if h.L1I.Warm(addr, false) {
		return true
	}
	h.LLC.Warm(addr, false)
	return false
}

// WarmInstLLC is the LLC half of WarmInst alone, for a hierarchy whose L1I
// another hierarchy's WarmInst has just warmed and found missing the line:
// checkpoint capture warms the variants of one instruction stream over a
// single L1I.
func (h *Hierarchy) WarmInstLLC(addr uint64) { h.LLC.Warm(addr+h.base, false) }

// Data services a demand data access for the instruction at pc and returns
// the completion cycle and serving level.
func (h *Hierarchy) Data(pc, addr uint64, write bool, cycle uint64) (done uint64, by ServedBy) {
	done, depth := h.L1D.AccessPC(pc, addr+h.base, write, cycle)
	switch {
	case depth <= 0:
		by = ServedL1
	case depth == 1:
		by = ServedLLC
	default:
		by = ServedDRAM
		h.trackMiss(done, cycle)
	}
	return done, by
}

// Inst services an instruction-fetch access for the code line at addr.
func (h *Hierarchy) Inst(addr uint64, cycle uint64) (done uint64, hit bool) {
	done, depth := h.L1I.AccessPC(NoPC, addr+h.base, false, cycle)
	return done, depth == 0
}

// PrefetchInst requests an instruction line fill (FDIP).
func (h *Hierarchy) PrefetchInst(addr uint64, cycle uint64) { h.L1I.Prefetch(addr+h.base, cycle) }

func (h *Hierarchy) trackMiss(done, cycle uint64) {
	// Prune completed entries opportunistically.
	live := h.outstanding[:0]
	for _, d := range h.outstanding {
		if d > cycle {
			live = append(live, d)
		}
	}
	h.outstanding = append(live, done)
}

// OutstandingMisses returns the number of DRAM-served loads still in
// flight at the given cycle, including any that started this cycle. This
// is the MLP proxy used by the delinquent-load classifier.
func (h *Hierarchy) OutstandingMisses(cycle uint64) int {
	n := 0
	for _, d := range h.outstanding {
		if d > cycle {
			n++
		}
	}
	return n
}
