package checkpoint

import (
	"bytes"
	"context"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/codec"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/prefetch"
	"crisp/internal/program"
)

// codecCapture captures a set whose memory spans many pages, most of
// them never written after initialization, so consecutive points share
// page storage copy-on-write — the sharing the codec must preserve.
func codecCapture(t *testing.T) *Set {
	t.Helper()
	prog := chaseProgram(t)
	mem := emu.NewMemory()
	for i := int64(0); i < 64; i++ {
		mem.WriteWord(uint64(0x4000+8*i), i)
	}
	// Pages the program never touches: resident, read-only, shared by
	// every snapshot.
	for pg := int64(0); pg < 32; pg++ {
		mem.WriteWord(uint64(0x100000+pg*4096), pg)
	}
	pfs := map[string]prefetch.Prefetcher{
		"bop+stream": &prefetch.Composite{Parts: []prefetch.Prefetcher{prefetch.NewBOP(), prefetch.NewStream(64)}},
		"stride":     prefetch.NewStride(256),
		"ghb":        prefetch.NewGHB(512),
		"none":       nil,
	}
	set, err := captureOne(context.Background(), prog, emu.New(prog, mem), cache.DefaultHierConfig(), 128, 4, 16, pfs,
		Params{Skip: 100, Warm: 2000, Window: 500, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCodecRoundTrip: decode(encode(set)) must preserve every field the
// encoder covers. Direct DeepEqual is confounded by unexported decode-
// side caches, so fidelity is checked the way the store relies on it:
// re-encoding the decoded set must reproduce the original bytes exactly
// (which also proves encoding is deterministic), before Attach and after.
// Until Attach has the right image a decoded point restores nothing.
func TestCodecRoundTrip(t *testing.T) {
	set := codecCapture(t)
	const key = "test-content-key"
	enc := EncodeSet(set, key)

	dec, err := DecodeSet(enc, key)
	if err != nil {
		t.Fatalf("DecodeSet: %v", err)
	}
	if len(dec.Points) != len(set.Points) {
		t.Fatalf("decoded %d points, want %d", len(dec.Points), len(set.Points))
	}
	if dec.Hier != set.Hier || dec.FFInsts != set.FFInsts || dec.HostNS != set.HostNS {
		t.Errorf("set header fields did not round-trip")
	}
	re := EncodeSet(dec, key)
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encoding the decoded set produced different bytes (%d vs %d)", len(enc), len(re))
	}

	// Unattached, the points hold one page each (the accumulator's) and
	// must refuse to restore rather than run over an all-but-empty memory.
	prog := chaseProgram(t)
	if _, err := dec.Points[0].Restore(prog, "none"); err == nil {
		t.Fatal("Restore on an unattached point succeeded")
	}
	// The wrong image: same page numbers, one word different; and one page
	// more. Both refused, and the set left as it was.
	wrong := set.Images[0].Snapshot()
	wrong.WriteWord(0x100000, -1)
	more := set.Images[0].Snapshot()
	more.WriteWord(0x900000, 0)
	for name, image := range map[string]*emu.Memory{"one word changed": wrong, "one page more": more} {
		if err := dec.Attach(image); err == nil {
			t.Fatalf("Attach to an image with %s succeeded", name)
		}
	}
	if _, err := dec.Points[0].Restore(prog, "none"); err == nil || !bytes.Equal(EncodeSet(dec, key), enc) {
		t.Fatal("a refused Attach changed the set")
	}
	if err := dec.Attach(set.Images...); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := dec.Attach(set.Images...); err == nil {
		t.Error("attaching twice succeeded")
	}
	if !bytes.Equal(EncodeSet(dec, key), enc) {
		t.Fatal("re-encoding the attached set produced different bytes")
	}

	// An attached point must be restorable (memory snapshot, variant
	// clones) just like a captured one, over the same memory.
	for _, kind := range []string{"bop+stream", "stride", "ghb", "none"} {
		st, err := dec.Points[0].Restore(prog, kind)
		if err != nil {
			t.Fatalf("Restore(%q) on decoded point: %v", kind, err)
		}
		if st.Ems[0].PC() != set.Points[0].Cores[0].PC {
			t.Errorf("restored PC = %d, want %d", st.Ems[0].PC(), set.Points[0].Cores[0].PC)
		}
		for _, addr := range []uint64{0x4000, 0x4008, 0x100000 + 31*4096} {
			if got, want := st.Ems[0].Mem().ReadWord(addr), set.Points[0].Cores[0].Mem.ReadWord(addr); got != want {
				t.Errorf("restored word %#x = %d, want %d", addr, got, want)
			}
		}
	}

	// Decoding with no expected key skips the key match but still
	// verifies integrity.
	if _, err := DecodeSet(enc, ""); err != nil {
		t.Errorf("DecodeSet with empty expectKey: %v", err)
	}
}

// TestCodecPageDedup: the file holds no page the image holds, and a page
// the run wrote holds once however many points share it. The program
// below fills one page before the first window and then only reads, so
// all three points share that one private array next to 32 image pages.
// The dict page count sits at a fixed position after the payload header;
// parse it.
func TestCodecPageDedup(t *testing.T) {
	b := program.NewBuilder("fillonce")
	b.MovI(isa.R(1), 0x8000)
	b.MovI(isa.R(2), 0)
	b.MovI(isa.R(5), 16)
	b.Label("fill")
	b.Shl(isa.R(6), isa.R(2), 3)
	b.Add(isa.R(6), isa.R(1), isa.R(6))
	b.Store(isa.R(6), 0, isa.R(2))
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Blt(isa.R(2), isa.R(5), "fill")
	b.Label("spin")
	b.Load(isa.R(3), isa.R(1), 8)
	b.Jmp("spin")
	prog := b.MustBuild()
	mem := emu.NewMemory()
	for pg := int64(0); pg < 32; pg++ {
		mem.WriteWord(uint64(0x100000+pg*4096), pg)
	}
	set, err := captureOne(context.Background(), prog, emu.New(prog, mem), cache.DefaultHierConfig(), 128, 4, 16,
		map[string]prefetch.Prefetcher{"none": nil}, Params{Skip: 100, Warm: 500, Window: 100, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Points) != 3 {
		t.Fatalf("captured %d points, want 3", len(set.Points))
	}
	for i, pt := range set.Points {
		if pt.Cores[0].Mem.Pages() != 33 {
			t.Fatalf("point %d holds %d pages, want 33", i, pt.Cores[0].Mem.Pages())
		}
	}
	enc := EncodeSet(set, "k")

	r := codec.NewReader(enc)
	r.Raw(len(codecMagic)) // magic
	r.U32()                // codec version
	_ = r.String()         // content key
	r.U32()                // crc
	r.U64()                // payload length
	_ = r.String()         // hierarchy config JSON
	r.U32()                // core count
	r.U64()                // ff insts
	r.I64()                // host ns
	imagePages := r.U64()
	r.U32() // image checksum
	r.U64() // pace
	r.U64() // window insts
	r.U64() // the core's ff insts
	r.U32() // point count
	dictPages := int(r.U32())
	if err := r.Err(); err != nil {
		t.Fatalf("parse encoded header: %v", err)
	}
	if imagePages != 32 {
		t.Errorf("head records an image of %d pages, want 32", imagePages)
	}
	if dictPages != 1 {
		t.Errorf("dict holds %d pages, want the 1 the run wrote", dictPages)
	}
	dec, err := DecodeSet(enc, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Attach(set.Images...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refEncodeSet(dec, "k"), refEncodeSet(set, "k")) {
		t.Errorf("the attached set does not share its pages the way the captured one does")
	}
}

// TestCodecSingleVariant pins the codec's lower bound on variant count:
// a set warmed for exactly one prefetcher kind (a minimal capture, no
// cross-kind sharing) must round-trip byte-identically and restore.
func TestCodecSingleVariant(t *testing.T) {
	prog := chaseProgram(t)
	mem := emu.NewMemory()
	for i := int64(0); i < 64; i++ {
		mem.WriteWord(uint64(0x4000+8*i), i)
	}
	set, err := captureOne(context.Background(), prog, emu.New(prog, mem), cache.DefaultHierConfig(), 128, 4, 16,
		map[string]prefetch.Prefetcher{"stride": prefetch.NewStride(256)},
		Params{Warm: 2000, Window: 500, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	const key = "single-variant-key"
	enc := EncodeSet(set, key)
	dec, err := DecodeSet(enc, key)
	if err != nil {
		t.Fatalf("DecodeSet: %v", err)
	}
	if !bytes.Equal(enc, EncodeSet(dec, key)) {
		t.Fatal("single-variant set did not round-trip byte-identically")
	}
	if err := dec.Attach(set.Images...); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Points[0].Restore(prog, "stride"); err != nil {
		t.Fatalf("Restore on decoded single-variant point: %v", err)
	}
	if _, err := dec.Points[0].Restore(prog, "ghb"); err == nil {
		t.Error("restoring a kind the single-variant set never warmed must fail")
	}
}

// TestCodecZeroPageMemory pins the other lower bound: a register-only
// program touches no data memory, so every snapshot's page table is
// empty and the page dict holds zero pages — a shape the length-prefixed
// page encoding must represent, not a corrupt header.
func TestCodecZeroPageMemory(t *testing.T) {
	b := program.NewBuilder("regonly")
	b.MovI(isa.R(1), 0)
	b.Label("loop")
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Jmp("loop")
	prog := b.MustBuild()
	set, err := captureOne(context.Background(), prog, emu.New(prog, emu.NewMemory()), cache.DefaultHierConfig(), 128, 4, 16,
		map[string]prefetch.Prefetcher{"none": nil},
		Params{Warm: 1000, Window: 200, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Points) == 0 {
		t.Fatal("no points captured")
	}
	for i, pt := range set.Points {
		if pt.Cores[0].Mem.Pages() != 0 {
			t.Fatalf("point %d snapshot holds %d pages, want 0", i, pt.Cores[0].Mem.Pages())
		}
	}
	const key = "zero-page-key"
	enc := EncodeSet(set, key)
	dec, err := DecodeSet(enc, key)
	if err != nil {
		t.Fatalf("DecodeSet: %v", err)
	}
	if !bytes.Equal(enc, EncodeSet(dec, key)) {
		t.Fatal("zero-page set did not round-trip byte-identically")
	}
	if err := dec.Attach(emu.NewMemory()); err != nil {
		t.Fatalf("Attach to an empty image: %v", err)
	}
	st, err := dec.Points[0].Restore(prog, "none")
	if err != nil {
		t.Fatalf("Restore on decoded zero-page point: %v", err)
	}
	if pc := st.Ems[0].PC(); pc != set.Points[0].Cores[0].PC {
		t.Errorf("restored PC = %d, want %d", pc, set.Points[0].Cores[0].PC)
	}
}

// TestCodecDetectsCorruption: every class of damage — bit flip in a
// memory page, truncation, header tampering — must decode to an error,
// never to silently wrong state.
func TestCodecDetectsCorruption(t *testing.T) {
	set := codecCapture(t)
	const key = "test-content-key"
	enc := EncodeSet(set, key)

	// Flip one byte in the back half (page/point data, beyond the
	// header) — the satellite requirement: corrupt one page byte, assert
	// detection.
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x01
	if _, err := DecodeSet(bad, key); err == nil {
		t.Error("bit flip in payload decoded without error")
	}

	// Truncation (torn write without the atomic rename).
	if _, err := DecodeSet(enc[:len(enc)/3], key); err == nil {
		t.Error("truncated image decoded without error")
	}
	if _, err := DecodeSet(enc[:4], key); err == nil {
		t.Error("header-only image decoded without error")
	}

	// Key mismatch: a file renamed over the wrong key must not load.
	if _, err := DecodeSet(enc, "other-key"); err == nil {
		t.Error("mismatched content key decoded without error")
	}

	// Version/magic tampering.
	bad = append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	if _, err := DecodeSet(bad, key); err == nil {
		t.Error("bad magic decoded without error")
	}
	bad = append([]byte(nil), enc...)
	bad[len(codecMagic)] ^= 0xFF // low byte of the codec version
	if _, err := DecodeSet(bad, key); err == nil {
		t.Error("bad codec version decoded without error")
	}
}
