package checkpoint

import (
	"bytes"
	"context"
	"hash/crc32"
	"runtime"
	"testing"

	"crisp/internal/branch"
	"crisp/internal/cache"
	"crisp/internal/codec"
	"crisp/internal/dram"
	"crisp/internal/emu"
	"crisp/internal/prefetch"
	"crisp/internal/program"
)

// A stored set is the largest input the system reads back, so DecodeSet
// is fuzzed natively, from a one-core set of three variants (FuzzDecodeSet)
// and a two-core set of one (FuzzDecodeMultiSet). The envelope's CRC would turn
// every mutation into the same early refusal, so the fuzzers mutate the
// payload and seal it themselves; TestCodecDetectsCorruption covers the
// envelope. Three properties, as for cache.FuzzDecodeHierarchy: the
// decoder never panics; it allocates in proportion to its input, whatever
// geometry or table sizes the input declares; and a payload it accepts
// re-encodes, unattached, to exactly itself — so no two files decode to
// one set, and nothing a decoder tolerates can differ from what an encoder
// writes.

const fuzzKey = "fuzz"

// tinyHier is a hierarchy of 16-line L1s and a 60-line LLC, and tinyTAGE a
// predictor of 16-entry tables, so a whole two-point set is a few
// kilobytes and the fuzzer's mutations land in every section.
func tinyHier() cache.HierConfig {
	return cache.HierConfig{
		L1I:  cache.Config{Name: "L1I", SizeKiB: 1, Ways: 2, Latency: 3, MSHRs: 2},
		L1D:  cache.Config{Name: "L1D", SizeKiB: 1, Ways: 2, Latency: 4, MSHRs: 4},
		LLC:  cache.Config{Name: "LLC", SizeKiB: 4, Ways: 5, Latency: 36, MSHRs: 8},
		DRAM: dram.DefaultConfig(),
	}
}

func tinyTAGE(seed uint64) *branch.TAGE {
	bp := branch.NewTAGE(4, 4)
	for i := uint64(0); i < 200; i++ {
		bp.PredictAndTrain(0x400000+(i*seed)%7*4, (i*seed)%3 != 0)
	}
	return bp
}

// tinySet captures the chase program over an image of a few pages, one of
// which it keeps rewriting, with every prefetcher kind but GHB, whose
// 512-entry buffer would be 12 kB of every point (prefetch.FuzzDecode
// fuzzes its state).
func tinySet(t testing.TB) *Set {
	prog := chaseProgram(t)
	em := chaseEmu(t, prog)
	for pg := uint64(0); pg < 3; pg++ {
		em.Mem().WriteWord(0x100000+pg*4096, int64(pg))
	}
	set, err := captureOne(context.Background(), prog, em, tinyHier(), 16, 2, 4,
		[]string{prefetch.KindBOPStream, prefetch.KindStride, prefetch.KindNone}, Params{Skip: 10, Warm: 300, Window: 100, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range set.Points {
		pt.Cores[0].BP = tinyTAGE(uint64(i) + 3)
	}
	set.HostNS = 1234
	return set
}

func tinyMultiSet(t testing.TB) *Set {
	chase, stream := chaseProgram(t), storeProgram(t)
	set, err := captureMulti(context.Background(), []*program.Program{chase, stream},
		[]*emu.Emulator{chaseEmu(t, chase), emu.New(stream, emu.NewMemory())},
		tinyHier(), 16, 2, 4, []string{prefetch.KindStride, prefetch.KindNone},
		Params{Skip: 10, Warm: 300, Window: 100, Count: 2}, []float64{1.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	set.HostNS = 1234
	for i, pt := range set.Points {
		for c, cs := range pt.Cores {
			cs.BP = tinyTAGE(uint64(2*i+c) + 3)
		}
	}
	return set
}

// payloadOf strips the envelope off an encoded set; sealed puts one on.
func payloadOf(t testing.TB, enc []byte) []byte {
	r := codec.NewReader(enc)
	r.Raw(len(codecMagic))
	r.U32()
	_ = r.String()
	r.U32()
	n := int(r.U64())
	if r.Err() != nil || n != r.Remaining() {
		t.Fatalf("encoded set has no well-formed envelope")
	}
	return bytes.Clone(r.Raw(n))
}

func sealed(payload []byte) []byte {
	var w codec.Writer
	w.Raw([]byte(codecMagic))
	w.U32(codecVersion)
	w.String(fuzzKey)
	w.U32(crc32.ChecksumIEEE(payload))
	w.U64(uint64(len(payload)))
	w.Raw(payload)
	return w.Bytes()
}

// imageField is the payload offset of the first core's image page count:
// behind the configuration, the core count, ffInsts and hostNS.
func imageField(set *Set) int { return 4 + len(hierJSON(set.Hier)) + 4 + 8 + 8 }

// allocBudget is what decoding n payload bytes may allocate: a line of a
// byte decodes to 25 bytes of arrays, and the smallest hierarchy a
// configuration can declare is some 20 bytes of lines for a kilobyte of
// structs, so the factor is that ratio with slack; the constant covers
// errors and the fuzzing engine's own allocations alongside.
func allocBudget(n int) uint64 { return 128*uint64(n) + 256<<10 }

// FuzzDecodeSet seeds the one-core set's good payload, a truncated one,
// one with a flipped bit in the point state and one whose head names
// another image, and checks the three properties on every payload.
func FuzzDecodeSet(f *testing.F) {
	fuzzDecode(f, tinySet(f), DecodeSet)
}

// FuzzDecodeMultiSet does the same from the two-core set, through the name
// the benchmark decodes stored sets by.
func FuzzDecodeMultiSet(f *testing.F) {
	fuzzDecode(f, tinyMultiSet(f), DecodeMultiSet)
}

func fuzzDecode(f *testing.F, seed *Set, decode func([]byte, string) (*Set, error)) {
	good := payloadOf(f, EncodeSet(seed, fuzzKey))
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := bytes.Clone(good)
	flipped[len(flipped)*2/3] ^= 1 << 3
	f.Add(flipped)
	wrongImage := bytes.Clone(good)
	wrongImage[imageField(seed)]++
	f.Add(wrongImage)

	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := sealed(payload)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		set, err := decode(data, fuzzKey)
		runtime.ReadMemStats(&ms)
		if got := ms.TotalAlloc - before; got > allocBudget(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(payload), got, allocBudget(len(payload)))
		}
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeSet(set, fuzzKey), data) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(payload))
		}
		if len(set.Points) == 0 {
			return
		}
		if _, err := set.Points[0].RestoreVariant(make([]*program.Program, set.Cores), ""); err != errUnattached {
			t.Fatalf("Restore on a decoded, unattached point: %v", err)
		}
	})
}

// TestFuzzSeedsAreWhatTheySay keeps the seeds honest: the good payloads
// decode, the wrong-image ones decode too — the payload is well-formed —
// and are refused by Attach, and the truncated ones are refused by the
// decoder. (The flipped bit may land in a field any value of which is
// state; it is there for the fuzzer to move.) A two-core set does not
// attach to one image.
func TestFuzzSeedsAreWhatTheySay(t *testing.T) {
	for _, set := range []*Set{tinySet(t), tinyMultiSet(t)} {
		enc := EncodeSet(set, fuzzKey)
		if len(enc) > 32<<10 {
			t.Errorf("%d-core tiny set encodes to %d bytes; the fuzzer wants kilobytes, not the 400 kB of a default-geometry set", set.Cores, len(enc))
		}
		good := payloadOf(t, enc)
		if !bytes.Equal(sealed(good), enc) {
			t.Fatalf("sealing a payload does not give the file back")
		}
		wrong := bytes.Clone(good)
		wrong[imageField(set)]++
		dec, err := DecodeSet(sealed(wrong), fuzzKey)
		if err != nil {
			t.Fatalf("payload naming another image: %v", err)
		}
		if dec.imageIDs[0].Pages != set.Images[0].ID().Pages+1 {
			t.Fatalf("byte %d of the payload is not the image's page count", imageField(set))
		}
		if err := dec.Attach(set.Images...); err == nil {
			t.Errorf("a set naming an image of %d pages attached to one of %d", dec.imageIDs[0].Pages, set.Images[0].ID().Pages)
		}
		if _, err := DecodeSet(sealed(good[:len(good)/2]), fuzzKey); err == nil {
			t.Errorf("truncated payload decoded without error")
		}
	}

	mset := tinyMultiSet(t)
	mdec, err := DecodeSet(EncodeSet(mset, fuzzKey), fuzzKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := mdec.Attach(mset.Images[:1]...); err == nil {
		t.Errorf("a two-core set attached to one image")
	}
	if err := mdec.Attach(mset.Images...); err != nil {
		t.Errorf("Attach: %v", err)
	}
}
