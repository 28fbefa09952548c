package branch

// TAGE implements a TAgged GEometric history length predictor (Seznec,
// "A case for (partially)-tagged geometric history length predictors"),
// the state-of-the-art direction predictor the paper simulates (Table 1).
//
// The predictor consists of a bimodal base table and several tagged
// components indexed with hashes of geometrically increasing global
// history lengths. The longest-history matching component provides the
// prediction; allocation on mispredictions steers hard branches into
// longer-history components.
type TAGE struct {
	base   []int8 // bimodal base predictor, 2-bit
	baseSz uint64

	tables []tageTable

	hist    []uint8 // circular global history buffer, 1 bit per entry
	histPos int

	useAltOnNA int8 // counter: trust alt prediction for newly allocated entries

	tick    uint64 // usefulness aging clock
	rng     uint64 // xorshift for allocation randomization
	mispred uint64
	total   uint64
}

type tageEntry struct {
	tag uint16
	ctr int8  // 3-bit signed: -4..3, >=0 predicts taken
	u   uint8 // 2-bit usefulness
}

type tageTable struct {
	entries []tageEntry
	mask    uint64
	histLen int
	tagBits uint

	idxFold  folded
	tagFold1 folded
	tagFold2 folded
}

// folded is an incrementally maintained folded history register
// (Seznec's circular shift register), compressing histLen bits of global
// history into compLen bits.
type folded struct {
	comp     uint64
	compLen  uint
	origLen  int
	outShift uint // origLen mod compLen: where the evicted bit has got to
}

// newFolded is where a folded is built, and where the one division is.
func newFolded(comp uint64, compLen uint, origLen int) folded {
	return folded{comp: comp, compLen: compLen, origLen: origLen, outShift: uint(origLen) % compLen}
}

func (f *folded) update(newBit, evictedBit uint64) {
	f.comp = (f.comp << 1) | newBit
	f.comp ^= evictedBit << f.outShift
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

// tageHistLens are the geometric history lengths of the tagged components.
var tageHistLens = []int{4, 8, 16, 32, 64, 130}

// Default TAGE geometry used by the core frontend and by checkpoint
// warming (which must build an identically-shaped predictor).
const (
	DefaultTAGELogBase   = 13
	DefaultTAGELogTagged = 11
)

// NewTAGE returns a TAGE predictor with a 2^logBase bimodal base table and
// 2^logTagged entries per tagged component.
func NewTAGE(logBase, logTagged int) *TAGE {
	t := &TAGE{
		base:   make([]int8, 1<<logBase),
		baseSz: uint64(1<<logBase - 1),
		rng:    0x9E3779B97F4A7C15,
	}
	maxHist := tageHistLens[len(tageHistLens)-1]
	t.hist = make([]uint8, maxHist+1)
	for _, hl := range tageHistLens {
		tt := tageTable{
			entries: make([]tageEntry, 1<<logTagged),
			mask:    uint64(1<<logTagged - 1),
			histLen: hl,
			tagBits: 11,
		}
		tt.idxFold = newFolded(0, uint(logTagged), hl)
		tt.tagFold1 = newFolded(0, tt.tagBits, hl)
		tt.tagFold2 = newFolded(0, tt.tagBits-1, hl)
		t.tables = append(t.tables, tt)
	}
	return t
}

func (t *tageTable) index(pc uint64) uint64 {
	return (pc ^ (pc >> 4) ^ t.idxFold.comp) & t.mask
}

func (t *tageTable) tag(pc uint64) uint16 {
	return uint16((pc ^ t.tagFold1.comp ^ (t.tagFold2.comp << 1)) & ((1 << t.tagBits) - 1))
}

// PredictAndTrain implements Predictor.
func (t *TAGE) PredictAndTrain(pc uint64, actual bool) bool {
	t.total++

	// Find provider (longest matching) and alternate (next longest).
	provider, alt := -1, -1
	var provIdx, altIdx uint64
	for i := len(t.tables) - 1; i >= 0; i-- {
		tbl := &t.tables[i]
		idx := tbl.index(pc)
		if tbl.entries[idx].tag == tbl.tag(pc) {
			if provider < 0 {
				provider, provIdx = i, idx
			} else {
				alt, altIdx = i, idx
				break
			}
		}
	}

	basePred := t.base[pc&t.baseSz] >= 0
	altPred := basePred
	if alt >= 0 {
		altPred = t.tables[alt].entries[altIdx].ctr >= 0
	}

	pred := altPred
	providerWeak := false
	if provider >= 0 {
		e := &t.tables[provider].entries[provIdx]
		providerWeak = (e.ctr == 0 || e.ctr == -1) && e.u == 0
		if providerWeak && t.useAltOnNA >= 0 {
			pred = altPred
		} else {
			pred = e.ctr >= 0
		}
	}

	t.update(pc, actual, pred, altPred, provider, provIdx, providerWeak)
	if pred != actual {
		t.mispred++
	}
	return pred
}

func (t *TAGE) update(pc uint64, actual, pred, altPred bool, provider int, provIdx uint64, providerWeak bool) {
	// Train useAltOnNA when the provider was newly allocated/weak.
	if provider >= 0 && providerWeak && pred != altPred {
		provCorrect := (t.tables[provider].entries[provIdx].ctr >= 0) == actual
		if provCorrect {
			t.useAltOnNA = sat(t.useAltOnNA, false, -4, 3)
		} else {
			t.useAltOnNA = sat(t.useAltOnNA, true, -4, 3)
		}
	}

	// Update provider counter (or base if no provider).
	if provider >= 0 {
		e := &t.tables[provider].entries[provIdx]
		e.ctr = sat(e.ctr, actual, -4, 3)
		// Usefulness: provider differed from alternate and was correct.
		provPred := e.ctr >= 0 // note: post-update; acceptable approximation
		if provPred == actual && (e.ctr >= 0) != altPred {
			if pred == actual && e.u < 3 {
				e.u++
			} else if pred != actual && e.u > 0 {
				e.u--
			}
		}
	} else {
		i := pc & t.baseSz
		t.base[i] = sat(t.base[i], actual, -2, 1)
	}

	// Allocate a new entry in a longer-history table on misprediction.
	if pred != actual && provider < len(t.tables)-1 {
		start := provider + 1
		// Randomize among candidate tables to avoid ping-ponging.
		t.rng ^= t.rng << 13
		t.rng ^= t.rng >> 7
		t.rng ^= t.rng << 17
		if start < len(t.tables)-1 && t.rng&3 == 0 {
			start++
		}
		allocated := false
		for i := start; i < len(t.tables); i++ {
			tbl := &t.tables[i]
			idx := tbl.index(pc)
			if tbl.entries[idx].u == 0 {
				tbl.entries[idx] = tageEntry{tag: tbl.tag(pc), ctr: ctrInit(actual), u: 0}
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay usefulness of the candidates so future allocations
			// succeed.
			for i := start; i < len(t.tables); i++ {
				tbl := &t.tables[i]
				idx := tbl.index(pc)
				if tbl.entries[idx].u > 0 {
					tbl.entries[idx].u--
				}
			}
		}
	}

	// Periodic graceful aging of usefulness bits.
	t.tick++
	if t.tick&(1<<18-1) == 0 {
		for i := range t.tables {
			for j := range t.tables[i].entries {
				t.tables[i].entries[j].u >>= 1
			}
		}
	}

	t.pushHistory(actual)
}

func ctrInit(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}

// pushHistory wraps positions with a compare: NewTAGE and DecodeTAGE
// establish 0 < histLen < len(hist) for every table and histPos < len(hist).
func (t *TAGE) pushHistory(taken bool) {
	newBit := b2u(taken)
	t.hist[t.histPos] = uint8(newBit)
	for i := range t.tables {
		tbl := &t.tables[i]
		evictPos := t.histPos - tbl.histLen
		if evictPos < 0 {
			evictPos += len(t.hist)
		}
		evicted := uint64(t.hist[evictPos])
		tbl.idxFold.update(newBit, evicted)
		tbl.tagFold1.update(newBit, evicted)
		tbl.tagFold2.update(newBit, evicted)
	}
	if t.histPos++; t.histPos == len(t.hist) {
		t.histPos = 0
	}
}

// Clone returns a deep copy of the predictor: trained tables, folded
// history registers and allocation RNG all carry over, so a clone
// restored into a detailed window predicts exactly as the warmed
// original would, without sharing any mutable state.
func (t *TAGE) Clone() *TAGE {
	cl := *t
	cl.base = append([]int8(nil), t.base...)
	cl.hist = append([]uint8(nil), t.hist...)
	cl.tables = make([]tageTable, len(t.tables))
	for i, tbl := range t.tables {
		tbl.entries = append([]tageEntry(nil), tbl.entries...)
		cl.tables[i] = tbl
	}
	return &cl
}

// MispredictRate returns the fraction of mispredicted calls so far.
func (t *TAGE) MispredictRate() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.mispred) / float64(t.total)
}
