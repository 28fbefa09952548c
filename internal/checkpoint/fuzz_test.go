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
// and DecodeMultiSet are fuzzed natively. The envelope's CRC would turn
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
// which it keeps rewriting, with every prefetcher kind that has a table.
func tinySet(t testing.TB) *Set {
	prog := chaseProgram(t)
	em := chaseEmu(t, prog)
	for pg := uint64(0); pg < 3; pg++ {
		em.Mem().WriteWord(0x100000+pg*4096, int64(pg))
	}
	pfs := map[string]prefetch.Prefetcher{
		"bop+stream": &prefetch.Composite{Parts: []prefetch.Prefetcher{prefetch.NewBOP(), prefetch.NewStream(8)}},
		"stride":     prefetch.NewStride(8),
		"ghb":        prefetch.NewGHB(16),
		"none":       nil,
	}
	set, err := CaptureContext(context.Background(), prog, em, tinyHier(), 16, 2, 4, pfs, Params{Skip: 10, Warm: 300, Window: 100, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range set.Points {
		pt.BP = tinyTAGE(uint64(i) + 3)
	}
	set.HostNS = 1234
	return set
}

func tinyMultiSet(t testing.TB) *MultiSet {
	chase, stream := chaseProgram(t), storeProgram(t)
	set, err := CaptureMultiContext(context.Background(), []*program.Program{chase, stream},
		[]*emu.Emulator{chaseEmu(t, chase), emu.New(stream, emu.NewMemory())},
		tinyHier(), 16, 2, 4, []prefetch.Prefetcher{prefetch.NewStride(8), nil},
		Params{Skip: 10, Warm: 300, Window: 100, Count: 2}, []float64{1.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	set.PFKinds = []string{"stride", "none"}
	set.HostNS = 1234
	for i, pt := range set.Points {
		for c, cs := range pt.Cores {
			cs.BP = tinyTAGE(uint64(2*i+c) + 3)
		}
	}
	return set
}

// payloadOf strips the envelope off an encoded set; sealed puts one on.
func payloadOf(t testing.TB, enc []byte, magic string) []byte {
	r := codec.NewReader(enc)
	r.Raw(len(magic))
	r.U32()
	_ = r.String()
	r.U32()
	n := int(r.U64())
	if r.Err() != nil || n != r.Remaining() {
		t.Fatalf("encoded set has no well-formed envelope")
	}
	return bytes.Clone(r.Raw(n))
}

func sealed(magic string, version uint32, payload []byte) []byte {
	var w codec.Writer
	w.Raw([]byte(magic))
	w.U32(version)
	w.String(fuzzKey)
	w.U32(crc32.ChecksumIEEE(payload))
	w.U64(uint64(len(payload)))
	w.Raw(payload)
	return w.Bytes()
}

// allocBudget is what decoding n payload bytes may allocate: a line of a
// byte decodes to 25 bytes of arrays, and the smallest hierarchy a
// configuration can declare is some 20 bytes of lines for a kilobyte of
// structs, so the factor is that ratio with slack; the constant covers
// errors and the fuzzing engine's own allocations alongside.
func allocBudget(n int) uint64 { return 128*uint64(n) + 256<<10 }

// fuzzPayloads seeds f with a good payload, a truncated one, one with a
// flipped bit in the point state and one whose head names another image
// (imageField is the offset of the first image's page count), and checks
// the three properties on every payload. decode returns the set's encoder
// and what restoring its first point says.
func fuzzPayloads(f *testing.F, magic string, version uint32, good []byte, imageField int,
	decode func(data []byte) (encode func() []byte, restore error, err error)) {
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := bytes.Clone(good)
	flipped[len(flipped)*2/3] ^= 1 << 3
	f.Add(flipped)
	wrongImage := bytes.Clone(good)
	wrongImage[imageField]++
	f.Add(wrongImage)

	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := sealed(magic, version, payload)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		encode, restore, err := decode(data)
		runtime.ReadMemStats(&ms)
		if got := ms.TotalAlloc - before; got > allocBudget(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(payload), got, allocBudget(len(payload)))
		}
		if err != nil {
			return
		}
		if !bytes.Equal(encode(), data) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(payload))
		}
		if restore != nil && restore != errUnattached {
			t.Fatalf("Restore on a decoded, unattached point: %v", restore)
		}
	})
}

func FuzzDecodeSet(f *testing.F) {
	set := tinySet(f)
	good := payloadOf(f, EncodeSet(set, fuzzKey), codecMagic)
	fuzzPayloads(f, codecMagic, codecVersion, good, 4+len(hierJSON(set.Hier))+8+8,
		func(data []byte) (func() []byte, error, error) {
			set, err := DecodeSet(data, fuzzKey)
			if err != nil {
				return nil, nil, err
			}
			restore := errUnattached
			if len(set.Points) > 0 {
				_, restore = set.Points[0].Restore(nil, "none")
			}
			return func() []byte { return EncodeSet(set, fuzzKey) }, restore, nil
		})
}

func FuzzDecodeMultiSet(f *testing.F) {
	set := tinyMultiSet(f)
	good := payloadOf(f, EncodeMultiSet(set, fuzzKey), multiCodecMagic)
	kinds := 0
	for _, k := range set.PFKinds {
		kinds += 4 + len(k)
	}
	fuzzPayloads(f, multiCodecMagic, multiCodecVersion, good, 4+len(hierJSON(set.Hier))+4+kinds+set.Cores*(8+8)+8+set.Cores*8+8,
		func(data []byte) (func() []byte, error, error) {
			set, err := DecodeMultiSet(data, fuzzKey)
			if err != nil {
				return nil, nil, err
			}
			restore := errUnattached
			if len(set.Points) > 0 {
				_, restore = set.Points[0].Restore(make([]*program.Program, set.Cores))
			}
			return func() []byte { return EncodeMultiSet(set, fuzzKey) }, restore, nil
		})
}

// TestFuzzSeedsAreWhatTheySay keeps the seeds honest: the good payloads
// decode, the wrong-image one decodes too — the payload is well-formed —
// and is refused by Attach, and the truncated one is refused by the
// decoder. (The flipped bit may land in a field any value of which is
// state; it is there for the fuzzer to move.)
func TestFuzzSeedsAreWhatTheySay(t *testing.T) {
	set := tinySet(t)
	enc := EncodeSet(set, fuzzKey)
	if len(enc) > 32<<10 {
		t.Errorf("tiny set encodes to %d bytes; the fuzzer wants kilobytes, not the 400 kB of a default-geometry set", len(enc))
	}
	good := payloadOf(t, enc, codecMagic)
	if !bytes.Equal(sealed(codecMagic, codecVersion, good), enc) {
		t.Fatalf("sealing a payload does not give the file back")
	}
	field := 4 + len(hierJSON(set.Hier)) + 8 + 8
	wrong := bytes.Clone(good)
	wrong[field]++
	dec, err := DecodeSet(sealed(codecMagic, codecVersion, wrong), fuzzKey)
	if err != nil {
		t.Fatalf("payload naming another image: %v", err)
	}
	if dec.imageID.Pages != set.Image.ID().Pages+1 {
		t.Fatalf("byte %d of the payload is not the image's page count", field)
	}
	if err := dec.Attach(set.Image); err == nil {
		t.Errorf("a set naming an image of %d pages attached to one of %d", dec.imageID.Pages, set.Image.ID().Pages)
	}
	if _, err := DecodeSet(sealed(codecMagic, codecVersion, good[:len(good)/2]), fuzzKey); err == nil {
		t.Errorf("truncated payload decoded without error")
	}

	mset := tinyMultiSet(t)
	menc := EncodeMultiSet(mset, fuzzKey)
	mdec, err := DecodeMultiSet(sealed(multiCodecMagic, multiCodecVersion, payloadOf(t, menc, multiCodecMagic)), fuzzKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := mdec.Attach(mset.Images[:1]); err == nil {
		t.Errorf("a two-core set attached to one image")
	}
	if err := mdec.Attach(mset.Images); err != nil {
		t.Errorf("Attach: %v", err)
	}
}
