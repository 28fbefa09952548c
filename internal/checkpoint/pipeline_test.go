package checkpoint

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/prefetch"
	"crisp/internal/program"
)

// storeProgram streams stores over a buffer with a periodic backward
// branch: exercises the store (dirtiness) warming path and the BTB.
func storeProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder("storestream")
	b.MovI(isa.R(1), 0x8000) // buffer base
	b.MovI(isa.R(5), 128)    // elements
	b.Label("outer")
	b.MovI(isa.R(2), 0)
	b.Label("loop")
	b.Shl(isa.R(6), isa.R(2), 3)
	b.Add(isa.R(6), isa.R(1), isa.R(6))
	b.Load(isa.R(3), isa.R(6), 0)
	b.AddI(isa.R(3), isa.R(3), 1)
	b.Store(isa.R(6), 0, isa.R(3))
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Blt(isa.R(2), isa.R(5), "loop")
	b.Jmp("outer")
	return b.MustBuild()
}

// chaseEmu builds a fresh emulator over the chase program's initialized
// memory (captures consume their emulator, so every capture needs its
// own).
func chaseEmu(t testing.TB, prog *program.Program) *emu.Emulator {
	t.Helper()
	mem := emu.NewMemory()
	for i := int64(0); i < 64; i++ {
		mem.WriteWord(uint64(0x4000+8*i), i)
	}
	return emu.New(prog, mem)
}

// capturePFS builds a fresh per-kind prefetcher map (instances are
// trained in place, so each capture needs its own).
func capturePFS() map[string]prefetch.Prefetcher {
	return map[string]prefetch.Prefetcher{
		"bop":    prefetch.NewBOP(),
		"stride": prefetch.NewStride(256),
		"ghb":    prefetch.NewGHB(512),
		"none":   nil,
	}
}

// TestCaptureParallelEquivalence pins the tentpole invariant of the
// capture pipeline: the parallel producer/consumer capture must be
// bit-identical to the sequential reference — decoded Sets DeepEqual,
// encoded bytes identical — because content-keyed stores and golden
// figures both depend on capture determinism. The drop-batch fault
// injection then proves the comparison actually detects divergence.
func TestCaptureParallelEquivalence(t *testing.T) {
	prog := chaseProgram(t)
	p := Params{Skip: 100, Warm: 20_000, Window: 2000, Count: 3}
	capture := func(workers int) *Set {
		set, err := CaptureContext(context.Background(), prog, chaseEmu(t, prog),
			cache.DefaultHierConfig(), 128, 4, 16, capturePFS(), p, workers)
		if err != nil {
			t.Fatal(err)
		}
		set.HostNS = 0 // wall time legitimately differs
		return set
	}
	seq := capture(1)
	par := capture(8)
	const key = "equivalence-key"
	seqBytes := EncodeSet(seq, key)
	parBytes := EncodeSet(par, key)
	if !bytes.Equal(seqBytes, parBytes) {
		t.Fatalf("parallel capture encodes differently from sequential (%d vs %d bytes)",
			len(parBytes), len(seqBytes))
	}
	dseq, err := DecodeSet(seqBytes, key)
	if err != nil {
		t.Fatal(err)
	}
	dpar, err := DecodeSet(parBytes, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dseq, dpar) {
		t.Fatal("decoded parallel Set differs from decoded sequential Set")
	}
	if par.WarmInsts != seq.WarmInsts || par.WarmInsts != (p.Warm+p.Window)*uint64(p.Count) {
		t.Errorf("WarmInsts = %d (seq %d), want %d", par.WarmInsts, seq.WarmInsts, (p.Warm+p.Window)*uint64(p.Count))
	}

	// Mutation check: dropping one warm batch must break the equality —
	// otherwise the comparison above proves nothing.
	SetDropBatch(0)
	defer SetDropBatch(-1)
	mutated := capture(8)
	if bytes.Equal(EncodeSet(mutated, key), seqBytes) {
		t.Fatal("dropping a batch did not change the captured Set; the equivalence check is vacuous")
	}
}

// TestCaptureMultiParallelEquivalence is the co-scheduled counterpart:
// the pipelined multi-core capture replays the recorded pace-scaled
// interleave through one ordered consumer, and must reproduce the
// sequential capture byte for byte (shared-LLC occupancy, store
// dirtiness, per-core frontends and paced snapshots included).
func TestCaptureMultiParallelEquivalence(t *testing.T) {
	chase := chaseProgram(t)
	stream := storeProgram(t)
	p := Params{Skip: 50, Warm: 15_000, Window: 1500, Count: 2}
	pace := []float64{1.0, 0.6}
	capture := func(workers int) *MultiSet {
		progs := []*program.Program{chase, stream}
		ems := []*emu.Emulator{chaseEmu(t, chase), emu.New(stream, emu.NewMemory())}
		pfs := []prefetch.Prefetcher{prefetch.NewBOP(), nil}
		set, err := CaptureMultiContext(context.Background(), progs, ems,
			cache.DefaultHierConfig(), 128, 4, 16, pfs, p, pace, workers)
		if err != nil {
			t.Fatal(err)
		}
		set.HostNS = 0
		set.PFKinds = []string{"bop", "none"} // the sim layer fills this in
		return set
	}
	seq := capture(1)
	par := capture(8)
	const key = "multi-equivalence-key"
	seqBytes := EncodeMultiSet(seq, key)
	parBytes := EncodeMultiSet(par, key)
	if !bytes.Equal(seqBytes, parBytes) {
		t.Fatalf("parallel multi capture encodes differently from sequential (%d vs %d bytes)",
			len(parBytes), len(seqBytes))
	}
	dseq, err := DecodeMultiSet(seqBytes, key)
	if err != nil {
		t.Fatal(err)
	}
	dpar, err := DecodeMultiSet(parBytes, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dseq, dpar) {
		t.Fatal("decoded parallel MultiSet differs from decoded sequential MultiSet")
	}

	SetDropBatch(0)
	defer SetDropBatch(-1)
	mutated := capture(8)
	if bytes.Equal(EncodeMultiSet(mutated, key), seqBytes) {
		t.Fatal("dropping a batch did not change the captured MultiSet; the equivalence check is vacuous")
	}
}

// TestCaptureContextCancel pins the cancellation contract: a cancelled
// capture returns (nil, ctx.Err()) instead of a partial Set, for both
// the sequential and pipelined paths and for the multi-core capture.
func TestCaptureContextCancel(t *testing.T) {
	prog := chaseProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Params{Warm: 1_000_000, Window: 1000, Count: 4}
	for _, workers := range []int{1, 4} {
		set, err := CaptureContext(ctx, prog, chaseEmu(t, prog),
			cache.DefaultHierConfig(), 128, 4, 16, capturePFS(), p, workers)
		if err == nil || set != nil {
			t.Errorf("workers=%d: cancelled capture returned set=%v err=%v, want nil set and ctx error", workers, set != nil, err)
		}
	}
	for _, workers := range []int{1, 4} {
		progs := []*program.Program{prog, prog}
		ems := []*emu.Emulator{chaseEmu(t, prog), chaseEmu(t, prog)}
		set, err := CaptureMultiContext(ctx, progs, ems,
			cache.DefaultHierConfig(), 128, 4, 16, []prefetch.Prefetcher{nil, nil}, p, nil, workers)
		if err == nil || set != nil {
			t.Errorf("workers=%d: cancelled multi capture returned set=%v err=%v, want nil set and ctx error", workers, set != nil, err)
		}
	}
}
