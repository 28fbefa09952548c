package core

// SchedulerKind selects the issue-selection policy.
type SchedulerKind int

// Scheduler policies.
const (
	// SchedOldestFirst is the Table 1 baseline: the age-matrix picker
	// selects the oldest ready instruction per port
	// ("6-oldest-ready-instructions-first"). Age-matrix order is dispatch
	// order is ROB order, so the model selects the first ready bit at or
	// after the ROB head's ring index.
	SchedOldestFirst SchedulerKind = iota
	// SchedCRISP extends the picker with the PRIO vector: the oldest
	// ready-and-critical instruction wins; if none exists the oldest ready
	// instruction is selected (Figure 6).
	SchedCRISP
	// SchedRandom picks uniformly among ready instructions (a RAND
	// scheduler without the age matrix), used for the ablation bench. It
	// ranks the ready set by IQ slot number, so it is the one policy that
	// models RAND slot allocation.
	SchedRandom
)

func (s SchedulerKind) String() string {
	switch s {
	case SchedOldestFirst:
		return "ooo"
	case SchedCRISP:
		return "crisp"
	default:
		return "random"
	}
}

// Table 1's fixed core parameters. Nothing varies them: a spec sets only
// the fields of Config.
const (
	FetchWidth            = 6       // fetch, dispatch and issue width
	LoadQueue, StoreQueue = 64, 128 // load and store buffer entries
	FrontendDepth         = 5       // fetch-to-dispatch pipeline depth, cycles
	FTQSize               = 128     // fetch queue entries: µops fetched ahead of dispatch
	BTBEntries, BTBWays   = 8192, 4 // branch target buffer
	RASEntries            = 32      // return address stack
	// RedirectPenalty is the extra frontend refill delay after a resolved
	// misprediction, on top of waiting for the branch to execute.
	RedirectPenalty = 10
	// BTBMissPenalty is the decode-redirect bubble for a taken branch
	// whose target missed the BTB.
	BTBMissPenalty = 8
)

// Config holds what a run may vary of the core: the window sizes
// (Figure 9), the scheduler, the predictor study and the run's bounds.
// The rest of Table 1 is the constants above, isa.Ports and
// cache.DefaultHierConfig.
type Config struct {
	// CommitWidth is the retire width. It stays a field because bench
	// reads it off sim.DefaultConfig.
	CommitWidth int
	ROBSize     int
	RSSize      int

	Scheduler SchedulerKind

	// PerfectBP replaces TAGE with an oracle direction predictor
	// (Section 5.3 study).
	PerfectBP bool

	// UPCWindow, when nonzero, records retired µops per window of this
	// many cycles (Figure 1 timelines).
	UPCWindow int

	// DebugNoSkip disables next-event idle-cycle skipping, stepping every
	// simulated cycle through the full stage loop. Results are identical
	// either way — skipping is cycle-exact by construction and the
	// equivalence test pins it — so the flag exists for debugging the
	// timing model and for the slow half of that test.
	DebugNoSkip bool

	// MaxInsts bounds the number of instructions simulated (0 = to Halt).
	MaxInsts uint64
}

// DefaultConfig returns the Table 1 core: 6-wide retire, 224-entry ROB,
// 96-entry unified RS, oldest-ready-first scheduling, TAGE.
func DefaultConfig() Config {
	return Config{
		CommitWidth: 6,
		ROBSize:     224,
		RSSize:      96,
		Scheduler:   SchedOldestFirst,
	}
}
