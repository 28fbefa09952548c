package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/ibda"
	"crisp/internal/program"
)

// CodeVersion tags the simulator's observable behaviour. It is hashed
// into every RunSpec key, so persistent result caches are invalidated
// when a change makes simulations produce different numbers. Bump it
// whenever timing behaviour changes — or, as for 6 and 7, whenever the
// bytes of a stored or served entry change shape: 5 → 6 changed no
// simulated number (goldens and CSV output are the same), only the JSON of
// Hist, LoadProf and BranchProf (flat integer rows); 6 → 7 moved no golden
// either, only the order of a prefetcher table's entries inside a stored
// checkpoint set (least recently used first, where it was sorted by key) —
// and under bop+stream a key now names one result, where before it named
// whichever the stream table's map-order evictions happened to give. The
// bump is what keeps any process from asking for an entry written in the
// other shape.
const CodeVersion = "crisp-sim-7"

// Input variants a RunSpec can run (Section 5.1's separate profiling and
// evaluation inputs).
const (
	InputTrain = "train"
	InputRef   = "ref"
)

// Scheduler names a RunSpec can request.
const (
	SchedOOO    = "ooo"
	SchedCRISP  = "crisp"
	SchedRandom = "random"
)

// RunSpec is a pure-data description of one timing simulation: which
// workload and input to run, under which scheduler and machine variant,
// and — for CRISP runs — which software-pipeline options produce the
// critical tags. Zero values mean the Table 1 defaults, so the minimal
// spec is {Workload, Insts}: the OOO baseline on the ref input.
//
// A RunSpec has a deterministic content key (Key) covering every field
// plus CodeVersion, which lets executors deduplicate identical runs and
// memoize results across processes.
type RunSpec struct {
	// Workload is the workload.ByName key. The spec layer does not
	// resolve it (that would invert the workload→sim dependency);
	// executors validate and build the image.
	Workload string `json:"workload"`
	// Input selects InputTrain or InputRef ("" = ref).
	Input string `json:"input,omitempty"`
	// Sched selects the issue policy: SchedOOO, SchedCRISP or
	// SchedRandom ("" = ooo).
	Sched string `json:"sched,omitempty"`
	// PerfectBP replaces TAGE with an oracle direction predictor.
	PerfectBP bool `json:"perfect_bp,omitempty"`
	// Insts is the instruction budget (core.Config.MaxInsts; 0 = to Halt).
	Insts uint64 `json:"insts"`
	// RS and ROB override the window sizes when nonzero (Figure 9).
	RS  int `json:"rs,omitempty"`
	ROB int `json:"rob,omitempty"`
	// Prefetcher selects the data-prefetch configuration (zero value is
	// the Table 1 bop+stream).
	Prefetcher PrefetcherKind `json:"prefetcher,omitempty"`
	// UPCWindow enables per-window retirement sampling (Figure 1).
	UPCWindow int `json:"upc_window,omitempty"`
	// IBDA, when non-nil, attaches the runtime IBDA marker; use with
	// Sched: "crisp" so the marks take effect.
	IBDA *ibda.Config `json:"ibda,omitempty"`
	// Crisp, when non-nil, asks the executor to run the CRISP software
	// pipeline on the workload's train input under these options and run
	// the tagged program; use with Sched: "crisp".
	Crisp *crisp.Options `json:"crisp,omitempty"`
	// Sampling, when non-nil, runs the spec as a sampled simulation:
	// Count detailed windows over a shared checkpoint set instead of full
	// detail from cycle 0. Mutually exclusive with Insts — the budget is
	// Sampling.Total().
	Sampling *Sampling `json:"sampling,omitempty"`
}

// Sampling is a RunSpec's sampled-simulation schedule: Count windows,
// each reached by fast-forwarding Skip instructions functionally (no
// warming) then Warm instructions with cache-tag and branch-predictor
// warming, followed by a Window-instruction detailed region. All configs
// of a workload that share the same schedule restore from one checkpoint
// set, so the functional prefix is executed once rather than per config.
// It is the schedule checkpoint.Capture takes.
type Sampling = checkpoint.Params

// AutoSampling returns a standard schedule covering total instructions:
// one detailed window per ~300K instructions (at least 4), 10% of the
// budget detailed, and the remaining 90% fast-forwarded with continuous
// functional warming (Skip = 0). Continuous warming keeps slow-converging
// state on the same trajectory as a full-detail run — BOP offset scoring
// converges over thousands of training misses, and the resident
// prefetched-line population that dedups most steady-state suggestions
// decays across any warming gap — which duty-cycled schedules reproduce
// only approximately; measured IPC error stays within ~2% across budgets.
// Schedules for very long workloads can trade fidelity for speed by
// moving warm budget into Skip explicitly. Totals match exactly when
// total is a multiple of 10*count; figure code should pair sampled runs
// with full runs of Total(), not of the requested total.
func AutoSampling(total uint64) Sampling {
	count := int(total / 300_000)
	if count < 4 {
		count = 4
	}
	w := total / (10 * uint64(count))
	if w == 0 {
		w = 1
	}
	per := total / uint64(count)
	warm := uint64(0)
	if per > w {
		warm = per - w
	}
	return Sampling{Skip: 0, Warm: warm, Window: w, Count: count}
}

// normalize returns the spec with defaulted fields canonicalized, so
// semantically identical specs share one key: empty input/scheduler
// names become explicit, and window sizes spelled out as the Table 1
// values collapse to the zero value.
func (s RunSpec) normalize() RunSpec {
	if s.Input == "" {
		s.Input = InputRef
	}
	if s.Sched == "" {
		s.Sched = SchedOOO
	}
	def := core.DefaultConfig()
	if s.RS == def.RSSize {
		s.RS = 0
	}
	if s.ROB == def.ROBSize {
		s.ROB = 0
	}
	return s
}

// Key returns the spec's deterministic content key: a hex digest of the
// normalized spec and CodeVersion. Two specs with equal keys describe
// byte-identical simulations.
func (s RunSpec) Key() string { return contentKey("run", s.normalize()) }

// SimKey returns the key of the simulation the spec runs over prog, the
// program of the spec's image (tagged, for a CRISP spec). It hashes the
// normalized spec with three rewrites, each of which leaves the Result
// byte-identical (DESIGN.md, "Shared simulations"):
//
//  1. the CRISP options give way to the tags they produced, prog's
//     critical PCs: a tagged program is the untagged one with those PCs
//     prefixed (Analysis.Apply), and its layout follows from Insts alone;
//  2. the CRISP scheduler with no tags and no IBDA is the OOO one: with
//     the PRIO vector empty the picks are the age-order ones, and the
//     counters of critical issue stay 0;
//  3. an IST that never evicts on prog (ibda.Config.NeverEvicts) is the
//     unbounded IST, and no Result field describes the IST.
//
// Specs with equal SimKeys over their own programs have equal Results,
// host fields aside, so the runner simulates once per SimKey; Key still
// names the entry each spec is stored and served under.
func (s RunSpec) SimKey(prog *program.Program) string {
	n := s.normalize()
	n.Crisp = nil
	tags := prog.CriticalPCs()
	if n.Sched == SchedCRISP && len(tags) == 0 && n.IBDA == nil {
		n.Sched = SchedOOO
	}
	if n.IBDA != nil && n.IBDA.NeverEvicts(prog.Len()) {
		ib := *n.IBDA
		ib.ISTEntries, ib.ISTWays = 0, 0
		n.IBDA = &ib
	}
	return contentKey("sim", struct {
		RunSpec
		Tags []int `json:"tags,omitempty"`
	}{n, tags})
}

// contentKey is a hex digest of CodeVersion, a kind and v's JSON.
func contentKey(kind string, v any) string {
	b, err := json.Marshal(v)
	if err != nil { // unreachable: specs are plain data
		panic(fmt.Sprintf("sim: marshal %s spec: %v", kind, err))
	}
	h := sha256.Sum256(append([]byte(CodeVersion+"|"+kind+"|"), b...))
	return hex.EncodeToString(h[:16])
}

// Validate reports spec-level errors: unknown input or scheduler names,
// a missing workload name, or CRISP options out of range. Workload
// existence is checked by the executor, which owns the workload registry.
func (s RunSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("sim: RunSpec has no workload")
	}
	n := s.normalize()
	if n.Input != InputTrain && n.Input != InputRef {
		return fmt.Errorf("sim: unknown input %q (want %q or %q)", s.Input, InputTrain, InputRef)
	}
	switch n.Sched {
	case SchedOOO, SchedCRISP, SchedRandom:
	default:
		return fmt.Errorf("sim: unknown scheduler %q (want ooo, crisp or random)", s.Sched)
	}
	if s.Crisp != nil && s.IBDA != nil {
		return fmt.Errorf("sim: RunSpec requests both static CRISP tags and runtime IBDA marking")
	}
	if s.Crisp != nil {
		if err := s.Crisp.Validate(); err != nil {
			return err
		}
	}
	if s.Sampling != nil {
		if s.Sampling.Window == 0 || s.Sampling.Count <= 0 {
			return fmt.Errorf("sim: sampling needs Window > 0 and Count > 0 (got window %d, count %d)",
				s.Sampling.Window, s.Sampling.Count)
		}
		if s.Insts != 0 {
			return fmt.Errorf("sim: sampling and insts are mutually exclusive; the budget is sampling.Total()")
		}
	}
	return nil
}

// Config materializes the simulated-system configuration the spec
// describes: Table 1 defaults with the spec's overrides applied.
func (s RunSpec) Config() (Config, error) {
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	n := s.normalize()
	cfg := DefaultConfig()
	cfg.Core.MaxInsts = n.Insts
	if n.RS > 0 {
		cfg.Core.RSSize = n.RS
	}
	if n.ROB > 0 {
		cfg.Core.ROBSize = n.ROB
	}
	cfg.Prefetcher = n.Prefetcher
	cfg.Core.UPCWindow = n.UPCWindow
	cfg.Core.PerfectBP = n.PerfectBP
	switch n.Sched {
	case SchedOOO:
		cfg.Core.Scheduler = core.SchedOldestFirst
	case SchedCRISP:
		cfg.Core.Scheduler = core.SchedCRISP
	case SchedRandom:
		cfg.Core.Scheduler = core.SchedRandom
	}
	if n.IBDA != nil {
		ib := *n.IBDA
		cfg.IBDA = &ib
	}
	return cfg, nil
}

// WithCrisp returns a copy tagged for a CRISP run under opts.
func (s RunSpec) WithCrisp(opts crisp.Options) RunSpec {
	s.Sched = SchedCRISP
	s.Crisp = &opts
	return s
}

// WithIBDA returns a copy running under runtime IBDA marking.
func (s RunSpec) WithIBDA(cfg ibda.Config) RunSpec {
	s.Sched = SchedCRISP
	s.IBDA = &cfg
	return s
}
