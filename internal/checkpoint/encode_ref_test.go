package checkpoint

// The set encoders as they stood in codec version 1: every page of every
// point interned and written, no image, point state into one append-grown
// writer, that into a payload writer behind the page dict, that into the
// output behind the header. Kept verbatim (the page tables ask for the
// whole memory, as version 1 always did) as the account of what a set IS:
// every field, every page's contents, and which points share which page
// arrays. Two sets with the same bytes here restore the same windows. The
// delta container must carry every set through encode, decode and Attach
// unchanged by this account (TestRoundTripMatchesReference here, and the
// workload sets in oracle_test.go). The line, BTB and page-table forms
// underneath have their own version-1 references beside their packages'
// tests (cache/refcache_test.go, branch/persist_test.go,
// emu/persist_test.go).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/codec"
	"crisp/internal/emu"
	"crisp/internal/prefetch"
	"crisp/internal/program"
)

func refEncodeSet(set *Set, key string) []byte {
	// Pass 1: encode point state into a scratch writer, interning pages.
	var pw codec.Writer
	dict := emu.NewPageDict()
	for _, pt := range set.Points {
		pw.Int(pt.Cores[0].PC)
		for _, v := range pt.Cores[0].Regs {
			pw.I64(v)
		}
		pw.U64(pt.Cores[0].FFInsts)
		pt.Cores[0].BP.EncodeState(&pw)
		pt.Cores[0].BTB.EncodeState(&pw)
		pt.Cores[0].RAS.EncodeState(&pw)
		names := make([]string, 0, len(pt.Variants))
		for name := range pt.Variants {
			names = append(names, name)
		}
		sort.Strings(names)
		pw.U32(uint32(len(names)))
		for _, name := range names {
			v := pt.Variants[name]
			pw.String(name)
			v.Hier.Encode(&pw)
			prefetch.Encode(&pw, v.PFs[0])
		}
		pt.Cores[0].Mem.EncodeState(&pw, dict, nil)
	}

	// Pass 2: assemble the payload with the dict ahead of the page
	// tables that reference it.
	var w codec.Writer
	hierJSON, err := json.Marshal(set.Hier)
	if err != nil { // unreachable: HierConfig is plain data
		panic(fmt.Sprintf("checkpoint: marshal HierConfig: %v", err))
	}
	w.String(string(hierJSON))
	w.U64(set.FFInsts)
	w.I64(set.HostNS)
	w.U32(uint32(len(set.Points)))
	dict.EncodePages(&w)
	w.Raw(pw.Bytes())
	payload := w.Bytes()

	var out codec.Writer
	out.Raw([]byte(codecMagic))
	out.U32(1)
	out.String(key)
	out.U32(crc32.ChecksumIEEE(payload))
	out.U64(uint64(len(payload)))
	out.Raw(payload)
	return out.Bytes()
}

// multiVariant is the one variant of a co-scheduled point, and its name:
// the version-1 account wrote the cores' prefetcher kinds in the head and
// each core's prefetcher beside its core, and writes them per point here.
func multiVariant(pt *Point) (string, *Variant) {
	for name, v := range pt.Variants {
		return name, v
	}
	return "", nil
}

func refEncodeMultiSet(set *Set, key string) []byte {
	// Pass 1: encode point state into a scratch writer, interning pages.
	var pw codec.Writer
	dict := emu.NewPageDict()
	for _, pt := range set.Points {
		name, v := multiVariant(pt)
		pw.String(name)
		for c, cs := range pt.Cores {
			pw.Int(cs.PC)
			for _, v := range cs.Regs {
				pw.I64(v)
			}
			pw.U64(cs.FFInsts)
			cs.BP.EncodeState(&pw)
			cs.BTB.EncodeState(&pw)
			cs.RAS.EncodeState(&pw)
			prefetch.Encode(&pw, v.PFs[c])
		}
		v.Hier.Encode(&pw)
		for _, cs := range pt.Cores {
			cs.Mem.EncodeState(&pw, dict, nil)
		}
	}

	// Pass 2: assemble the payload with the dict ahead of the page
	// tables that reference it.
	var w codec.Writer
	hierJSON, err := json.Marshal(set.Hier)
	if err != nil { // unreachable: HierConfig is plain data
		panic(fmt.Sprintf("checkpoint: marshal HierConfig: %v", err))
	}
	w.String(string(hierJSON))
	w.U32(uint32(set.Cores))
	for i := 0; i < set.Cores; i++ {
		pace := 1.0
		if i < len(set.Pace) {
			pace = set.Pace[i]
		}
		w.U64(math.Float64bits(pace))
	}
	for i := 0; i < set.Cores; i++ {
		var wi uint64
		if i < len(set.WindowInsts) {
			wi = set.WindowInsts[i]
		}
		w.U64(wi)
	}
	w.U64(set.FFInsts)
	for _, ff := range set.FFPerCore {
		w.U64(ff)
	}
	w.I64(set.HostNS)
	w.U32(uint32(len(set.Points)))
	dict.EncodePages(&w)
	w.Raw(pw.Bytes())
	payload := w.Bytes()

	var out codec.Writer
	out.Raw([]byte("CRSPMCK1"))
	out.U32(1)
	out.String(key)
	out.U32(crc32.ChecksumIEEE(payload))
	out.U64(uint64(len(payload)))
	out.Raw(payload)
	return out.Bytes()
}

// multiCapture captures a two-core set: a chase core that keeps copying
// the one page its accumulator store lands in and leaves the rest of its
// image alone, and a store stream that builds its whole buffer from
// nothing.
func multiCapture(t *testing.T) *Set {
	t.Helper()
	chase, stream := chaseProgram(t), storeProgram(t)
	chaseEm := chaseEmu(t, chase)
	for pg := uint64(0); pg < 8; pg++ {
		chaseEm.Mem().WriteWord(0x100000+pg*4096, int64(pg))
	}
	mset, err := captureMulti(context.Background(),
		[]*program.Program{chase, stream},
		[]*emu.Emulator{chaseEm, emu.New(stream, emu.NewMemory())},
		cache.DefaultHierConfig(), 128, 4, 16, []string{prefetch.KindBOPStream, prefetch.KindNone},
		Params{Skip: 50, Warm: 15_000, Window: 1500, Count: 3}, []float64{1.0, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	return mset
}

// TestRoundTripMatchesReference pins the delta container to the version-1
// account of a set, on a single-core set (four prefetcher variants, image
// pages every point shares, one page every point rewrites) and a two-core
// co-scheduled set, under keys of different lengths (the key sits ahead of
// the CRC/length slot that seal patches in place): what comes back from
// encode, decode and Attach is, field for field and page for page, what
// went in. Skipping Attach, or attaching to an image with the same page
// numbers and other contents, must not.
func TestRoundTripMatchesReference(t *testing.T) {
	set := codecCapture(t)
	for _, key := range []string{"", "k", "crisp-sim-5/ckpt/0123456789abcdef0123456789abcdef"} {
		want := refEncodeSet(set, key)
		dec, err := DecodeSet(EncodeSet(set, key), key)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(refEncodeSet(dec, key), want) {
			t.Errorf("key %q: an unattached set already passes for the captured one: the check is vacuous", key)
		}
		if err := dec.Attach(set.Images[0]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refEncodeSet(dec, key), want) {
			t.Errorf("key %q: encode, decode and Attach changed the set", key)
		}
	}
	empty := &Set{Cores: 1}
	dec, err := DecodeSet(EncodeSet(empty, "empty"), "empty")
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Attach(emu.NewMemory()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refEncodeSet(dec, "empty"), refEncodeSet(empty, "empty")) {
		t.Errorf("a set without points did not round-trip")
	}

	mset := multiCapture(t)
	for _, key := range []string{"m", "crisp-sim-5/mckpt/0123456789abcdef0123456789abcdef"} {
		want := refEncodeMultiSet(mset, key)
		dec, err := DecodeSet(EncodeSet(mset, key), key)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(refEncodeMultiSet(dec, key), want) {
			t.Errorf("key %q: an unattached multi-set already passes for the captured one", key)
		}
		if err := dec.Attach(mset.Images...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refEncodeMultiSet(dec, key), want) {
			t.Errorf("key %q: encode, decode and Attach changed the multi-set", key)
		}
	}
}
