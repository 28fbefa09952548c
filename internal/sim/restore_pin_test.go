package sim_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"crisp/internal/checkpoint"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
	"crisp/internal/sim"
)

// What a decoded set restores, as the sha-256 of the JSON of its sampled
// results with host times zeroed. A change to the checkpoint codec that
// moves any warmed structure a window restores moves one of these; a
// change to the bytes alone moves neither.
const (
	strideRestoreSHA256 = "8e5274708217e040ccf0432414c9052c147666efc1af4090b09a705b5e6a8c2f"
	pairRestoreSHA256   = "8e725426a953e509c1dc680aa75afe9b4e21799748564142fffe4800ff1bb739"
)

// roundTrip encodes set, decodes it and attaches the decoded set to images.
func roundTrip(t *testing.T, set *checkpoint.Set, images ...*emu.Memory) *checkpoint.Set {
	t.Helper()
	dec, err := checkpoint.DecodeSet(checkpoint.EncodeSet(set, "restore-pin"), "restore-pin")
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Attach(images...); err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestDecodedSetRestores pins the sampled results of two decoded sets:
// the stride-72 loop's one-core set under each of its four variants, and
// a two-core set of the co-location pair under bop+stream on the
// latency-critical core and no prefetcher on the batch core.
func TestDecodedSetRestores(t *testing.T) {
	ctx := context.Background()
	sum := func(results ...any) string {
		h := sha256.New()
		for _, r := range results {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}

	b := program.NewBuilder("stride72")
	b.MovI(isa.R(3), 0x200000)
	b.MovI(isa.R(4), 0)
	b.MovI(isa.R(5), 1<<20)
	b.Label("loop")
	b.Load(isa.R(8), isa.R(3), 0)
	b.AddI(isa.R(3), isa.R(3), 72)
	b.AddI(isa.R(4), isa.R(4), 1)
	b.Blt(isa.R(4), isa.R(5), "loop")
	b.Halt()
	prog := b.MustBuild()
	one := sim.Sampling{Warm: 20_000, Window: 2_000, Count: 3}
	set, err := sim.CaptureCheckpointsContext(ctx, &sim.Image{Prog: prog, Mem: emu.NewMemory()}, sim.DefaultConfig(), one)
	if err != nil {
		t.Fatal(err)
	}
	dec := roundTrip(t, set, emu.NewMemory())
	var results []any
	for _, pf := range []sim.PrefetcherKind{sim.PFBOPStream, sim.PFStride, sim.PFGHB, sim.PFNone} {
		cfg := sim.DefaultConfig()
		cfg.Prefetcher = pf
		r, err := sim.RunSampledContext(ctx, dec, prog, cfg, one)
		if err != nil {
			t.Fatalf("%v: %v", pf, err)
		}
		if r.SampledWindows != one.Count {
			t.Fatalf("%v: %d windows, want %d", pf, r.SampledWindows, one.Count)
		}
		r.HostNS, r.HostAllocs, r.HostFFNS = 0, 0, 0
		results = append(results, r)
	}
	if got := sum(results...); got != strideRestoreSHA256 {
		t.Errorf("stride-72 set restores to %s, want %s", got, strideRestoreSHA256)
	}

	cfgs := []sim.Config{sim.DefaultConfig(), sim.DefaultConfig()}
	cfgs[1].Prefetcher = sim.PFNone
	pset, err := sim.CaptureMultiCheckpointsContext(ctx, colocatePair(nil), cfgs, multiSmallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	imgs := colocatePair(nil)
	pdec := roundTrip(t, pset, imgs[0].Mem, imgs[1].Mem)
	m, err := sim.RunMultiSampledContext(ctx, pdec, []*program.Program{imgs[0].Prog, imgs[1].Prog}, cfgs, multiSmallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if m.SampledWindows != multiSmallSchedule.Count {
		t.Fatalf("pair: %d windows, want %d", m.SampledWindows, multiSmallSchedule.Count)
	}
	zeroHost(m)
	for _, r := range m.Cores {
		r.HostFFNS = 0
	}
	if got := sum(m); got != pairRestoreSHA256 {
		t.Errorf("bop+stream,none set restores to %s, want %s", got, pairRestoreSHA256)
	}
}
