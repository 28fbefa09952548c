package sim

import "fmt"

// MaxCores bounds a MultiSpec's width. The lockstep driver is O(cores) per
// shared cycle; eight covers every co-location experiment the harness runs
// while keeping obviously-wrong specs (a workload list pasted into the
// wrong field) from being simulated.
const MaxCores = 8

// MultiSpec is a pure-data description of one multi-core co-location
// simulation: an ordered list of per-core RunSpec clauses, one core each,
// running against a single shared LLC and DRAM (the Table 1 uncore — the
// shared-memory geometry is part of CodeVersion, like every other Table 1
// constant). Core order is significant: core i is requester i at the
// shared levels and its addresses are offset into the i-th slice of the
// physical address space.
//
// Like RunSpec, a MultiSpec has a deterministic content key over its
// normalized clauses plus CodeVersion, so the runner/store machinery
// deduplicates and persists multi-core runs exactly as it does
// single-core ones.
type MultiSpec struct {
	Cores []RunSpec `json:"cores"`
	// Sampling, when non-nil, runs the co-scheduled simulation sampled:
	// one shared schedule aligns every core's window boundaries, and the
	// cores restore from one co-scheduled checkpoint set instead of
	// executing full detail from cycle 0. The schedule is
	// spec-level because co-scheduling needs aligned boundaries — per-core
	// Sampling clauses stay rejected. With Sampling set, every clause's
	// Insts must be 0 (the per-core budget is Sampling.Total()) and no
	// clause may use runtime IBDA marking (an IBDA instance spans windows
	// and needs the sequential full-detail path).
	Sampling *Sampling `json:"sampling,omitempty"`
}

// normalize canonicalizes every clause (same collapsing as RunSpec.Key).
func (m MultiSpec) normalize() MultiSpec {
	n := MultiSpec{Cores: make([]RunSpec, len(m.Cores)), Sampling: m.Sampling}
	for i, c := range m.Cores {
		n.Cores[i] = c.normalize()
	}
	return n
}

// Key returns the spec's deterministic content key. Two MultiSpecs with
// equal keys describe byte-identical co-scheduled simulations.
func (m MultiSpec) Key() string { return contentKey("multi", m.normalize()) }

// Validate reports spec-level errors: an empty or oversized core list, an
// invalid clause, or clause features the requested execution path does
// not support (per-core sampling clauses; IBDA or per-core budgets under
// a spec-level sampling schedule).
func (m MultiSpec) Validate() error {
	if len(m.Cores) == 0 {
		return fmt.Errorf("sim: MultiSpec has no cores")
	}
	if len(m.Cores) > MaxCores {
		return fmt.Errorf("sim: MultiSpec has %d cores (max %d)", len(m.Cores), MaxCores)
	}
	for i, c := range m.Cores {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
		if c.Sampling != nil {
			return fmt.Errorf("sim: core %d carries a per-core sampling clause; co-scheduling needs aligned windows — set MultiSpec.Sampling instead", i)
		}
		if m.Sampling != nil {
			if c.Insts != 0 {
				return fmt.Errorf("sim: core %d has an instruction budget; with MultiSpec.Sampling the per-core budget is Sampling.Total()", i)
			}
			if c.IBDA != nil {
				return fmt.Errorf("sim: core %d uses runtime IBDA marking, which spans windows and needs the sequential full-detail path; sampled multi-core runs do not support it", i)
			}
		}
	}
	if m.Sampling != nil {
		if m.Sampling.Window == 0 || m.Sampling.Count <= 0 {
			return fmt.Errorf("sim: sampling needs Window > 0 and Count > 0 (got window %d, count %d)",
				m.Sampling.Window, m.Sampling.Count)
		}
	}
	return nil
}

// Configs materializes each clause's system configuration. All clauses
// share one uncore, so their hierarchy geometries must agree (they always
// do today: RunSpec has no hierarchy overrides).
func (m MultiSpec) Configs() ([]Config, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cfgs := make([]Config, len(m.Cores))
	for i, c := range m.Cores {
		cfg, err := c.Config()
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", i, err)
		}
		if cfg.Hier != cfgs[0].Hier && i > 0 {
			return nil, fmt.Errorf("sim: core %d hierarchy geometry differs from core 0", i)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}
