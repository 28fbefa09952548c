package core

import "crisp/internal/isa"

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

// Config holds the core microarchitectural parameters (Table 1 defaults
// via DefaultConfig).
type Config struct {
	FetchWidth  int
	CommitWidth int
	ROBSize     int
	RSSize      int
	LoadQueue   int
	StoreQueue  int

	Ports [isa.NumPortClasses]int

	Scheduler SchedulerKind

	// FrontendDepth is the fetch-to-dispatch pipeline depth in cycles.
	FrontendDepth int
	// RedirectPenalty is the extra frontend refill delay after a resolved
	// misprediction, on top of waiting for the branch to execute.
	RedirectPenalty int
	// BTBMissPenalty is the decode-redirect bubble for a taken branch
	// whose target missed the BTB.
	BTBMissPenalty int

	// PerfectBP replaces TAGE with an oracle direction predictor
	// (Section 5.3 study).
	PerfectBP bool
	// FDIP enables fetch-directed instruction prefetching into the L1I.
	FDIP bool
	// FTQSize bounds how far ahead (in code lines) FDIP prefetches.
	FTQSize int

	// BTBEntries and BTBWays size the branch target buffer.
	BTBEntries, BTBWays int
	// RASEntries sizes the return address stack.
	RASEntries int

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

// DefaultConfig returns the Table 1 core: 6-wide fetch/retire, 224-entry
// ROB, 96-entry unified RS, 64-entry load buffer, 128-entry store buffer,
// 4 ALU + 2 load + 1 store ports, TAGE, 8K-entry BTB, FDIP with 128 FTQ
// entries, oldest-ready-first scheduling.
func DefaultConfig() Config {
	return Config{
		FetchWidth:      6,
		CommitWidth:     6,
		ROBSize:         224,
		RSSize:          96,
		LoadQueue:       64,
		StoreQueue:      128,
		Ports:           isa.Ports(),
		Scheduler:       SchedOldestFirst,
		FrontendDepth:   5,
		RedirectPenalty: 10,
		BTBMissPenalty:  8,
		FDIP:            true,
		FTQSize:         128,
		BTBEntries:      8192,
		BTBWays:         4,
		RASEntries:      32,
	}
}
