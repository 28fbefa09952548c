package branch

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFoldedHistoryMatchesNaive verifies the incremental folded-history
// register against a naive recomputation from the raw history bits — the
// trickiest invariant in the TAGE implementation.
func TestFoldedHistoryMatchesNaive(t *testing.T) {
	f := func(seed int64, histLen8, compLen8 uint8) bool {
		histLen := int(histLen8%120) + 2
		compLen := uint(compLen8%14) + 2
		r := rand.New(rand.NewSource(seed))

		fh := newFolded(0, compLen, histLen)
		// Raw history, newest first.
		var hist []uint64

		naive := func() uint64 {
			// Fold the newest histLen bits into compLen bits exactly as the
			// shift-register accumulates them: bit i of the history (0 =
			// newest) lands at position (histLen-1-i) mod compLen... easiest
			// is to replay the updates on a fresh register.
			replay := refFolded{compLen: compLen, origLen: histLen}
			// Replay from oldest to newest.
			for i := len(hist) - 1; i >= 0; i-- {
				evicted := uint64(0)
				if i+histLen < len(hist) {
					evicted = hist[i+histLen]
				}
				replay.update(hist[i], evicted)
			}
			return replay.comp
		}

		for step := 0; step < 200; step++ {
			bit := uint64(r.Intn(2))
			evicted := uint64(0)
			if len(hist) >= histLen {
				evicted = hist[histLen-1]
			}
			fh.update(bit, evicted)
			hist = append([]uint64{bit}, hist...)
			if len(hist) > histLen+8 {
				hist = hist[:histLen+8]
			}
		}
		return fh.comp == naive()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refFolded is the folded register as it was before the out-shift was
// precomputed: one division an update.
type refFolded struct {
	comp    uint64
	compLen uint
	origLen int
}

func (f *refFolded) update(newBit, evictedBit uint64) {
	f.comp = (f.comp << 1) | newBit
	f.comp ^= evictedBit << (uint(f.origLen) % f.compLen)
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

// refPushHistory is pushHistory with both positions wrapped by %, on
// reference registers kept beside the predictor's: folds[3*i..3*i+2] are
// table i's idxFold, tagFold1, tagFold2.
func refPushHistory(hist []uint8, histPos *int, histLens []int, folds []refFolded, taken bool) {
	newBit := b2u(taken)
	hist[*histPos] = uint8(newBit)
	for i, hl := range histLens {
		evictPos := (*histPos - hl + len(hist)) % len(hist)
		for j := 0; j < 3; j++ {
			folds[3*i+j].update(newBit, uint64(hist[evictPos]))
		}
	}
	*histPos = (*histPos + 1) % len(hist)
}

// TestPushHistoryMatchesModulo drives 10k random outcomes through
// pushHistory and through the % form it replaced, from a history position
// near the wrap, and requires the same position, history bits and eighteen
// folded registers after every one.
func TestPushHistoryMatchesModulo(t *testing.T) {
	p := NewTAGE(6, 5)
	p.histPos = len(p.hist) - 3
	hist, histPos := append([]uint8(nil), p.hist...), p.histPos
	var folds []refFolded
	for _, tbl := range p.tables {
		for _, f := range []folded{tbl.idxFold, tbl.tagFold1, tbl.tagFold2} {
			folds = append(folds, refFolded{compLen: f.compLen, origLen: f.origLen})
		}
	}
	rng := rand.New(rand.NewSource(28))
	for step := 0; step < 10000; step++ {
		taken := rng.Intn(3) != 0
		p.pushHistory(taken)
		refPushHistory(hist, &histPos, tageHistLens, folds, taken)
		if p.histPos != histPos || !bytes.Equal(p.hist, hist) {
			t.Fatalf("step %d: position %d / history differ from the %% form's %d", step, p.histPos, histPos)
		}
		for i, tbl := range p.tables {
			for j, f := range []folded{tbl.idxFold, tbl.tagFold1, tbl.tagFold2} {
				if f.comp != folds[3*i+j].comp {
					t.Fatalf("step %d: table %d register %d = %#x, the %% form has %#x", step, i, j, f.comp, folds[3*i+j].comp)
				}
			}
		}
	}
}

func TestTAGEDeterministic(t *testing.T) {
	gen := func(i int) bool { return i%7 == 3 || i%3 == 1 }
	run := func() []bool {
		p := NewTAGE(10, 8)
		out := make([]bool, 500)
		for i := range out {
			out[i] = p.PredictAndTrain(uint64(0x40+i%13*4), gen(i))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs between identical runs", i)
		}
	}
}

func TestTAGEHistoryLengthsGeometric(t *testing.T) {
	for i := 1; i < len(tageHistLens); i++ {
		if tageHistLens[i] <= tageHistLens[i-1] {
			t.Errorf("history lengths not increasing: %v", tageHistLens)
		}
	}
	if tageHistLens[0] > 8 || tageHistLens[len(tageHistLens)-1] < 64 {
		t.Errorf("history span %v too narrow for a TAGE", tageHistLens)
	}
}

// TestTAGEAllocationOnMispredict: after sustained mispredictions on a
// pattern the base table cannot express, tagged entries must be allocated
// (indirectly observed: accuracy recovers).
func TestTAGEAllocationOnMispredict(t *testing.T) {
	p := NewTAGE(12, 10)
	// Pattern: alternating, which bimodal alone cannot learn (stays ~50%).
	correct := 0
	for i := 0; i < 4000; i++ {
		actual := i%2 == 0
		if p.PredictAndTrain(0x99, actual) == actual && i >= 2000 {
			correct++
		}
	}
	if acc := float64(correct) / 2000; acc < 0.95 {
		t.Errorf("TAGE failed to allocate for alternating pattern: acc %.3f", acc)
	}
}
