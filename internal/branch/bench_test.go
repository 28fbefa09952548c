package branch_test

import (
	"math/rand"
	"testing"

	"crisp/internal/branch"
)

// BenchmarkTAGE is one PredictAndTrain of the default-geometry predictor
// over 64 branches, a third of them loop exits, a third biased and a third
// random: lookup, update and the history push with its eighteen folded
// registers. Exported names only, so the file runs against a parent tree.
func BenchmarkTAGE(b *testing.B) {
	p := branch.NewTAGE(branch.DefaultTAGELogBase, branch.DefaultTAGELogTagged)
	rng := rand.New(rand.NewSource(1))
	outcomes := make([]bool, 1<<14)
	for i := range outcomes {
		switch pc := i % 64; pc % 3 {
		case 0:
			outcomes[i] = (i/64)%(3+pc) != 0
		case 1:
			outcomes[i] = rng.Intn(10) != 0
		default:
			outcomes[i] = rng.Intn(2) == 0
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		j := i & (len(outcomes) - 1)
		if p.PredictAndTrain(0x400000+uint64(j%64)*4, outcomes[j]) {
			n++
		}
	}
	sink = n
}

var sink int
