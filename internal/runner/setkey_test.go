package runner

import (
	"testing"

	"crisp/internal/sim"
	"crisp/internal/workload"
)

// TestSetKeysPinned pins the content keys of two sets that bench's
// workloads capture: mcf's sweep set and the sampled colocate pair. A key
// hashes CodeVersion, the schedule and the warmed geometry
// (geometryKey), so a refactor of where Table 1's sizes live must leave
// these hex strings alone; only a CodeVersion bump re-pins them.
func TestSetKeysPinned(t *testing.T) {
	sweep := sim.AutoSampling(2_000_000)
	if got, want := checkpointKey("mcf", workload.Ref, sweep), "7c0a0f8e6b6adc0e833d2874741ea006"; got != want {
		t.Errorf("mcf ref set key %s, want %s", got, want)
	}
	co := sim.AutoSampling(1_800_000)
	pair := sim.MultiSpec{Sampling: &co, Cores: []sim.RunSpec{
		{Workload: "tailchase", Prefetcher: sim.PFStride},
		{Workload: "streambatch", Prefetcher: sim.PFStride},
	}}
	if got, want := multiCheckpointKey(pair), "52604f68ab3efcc7861c2824914fec0d"; got != want {
		t.Errorf("colocate pair set key %s, want %s", got, want)
	}
}
