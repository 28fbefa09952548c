package checkpoint

// The encoders as they stood before the single-buffer container: point
// state into one append-grown writer, that into a payload writer behind
// the page dict, that into the output behind the header. Kept verbatim as
// the byte-for-byte reference for EncodeSet / EncodeMultiSet — store
// entries written by either must be readable, and re-encodable, by both.

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
		pw.Int(pt.PC)
		for _, v := range pt.Regs {
			pw.I64(v)
		}
		pw.U64(pt.FFInsts)
		pt.BP.EncodeState(&pw)
		pt.BTB.EncodeState(&pw)
		pt.RAS.EncodeState(&pw)
		names := make([]string, 0, len(pt.Variants))
		for name := range pt.Variants {
			names = append(names, name)
		}
		sort.Strings(names)
		pw.U32(uint32(len(names)))
		for _, name := range names {
			v := pt.Variants[name]
			pw.String(name)
			v.Hier.EncodeState(&pw)
			prefetch.Encode(&pw, v.PF)
		}
		pt.Mem.EncodeState(&pw, dict)
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
	out.U32(codecVersion)
	out.String(key)
	out.U32(crc32.ChecksumIEEE(payload))
	out.U64(uint64(len(payload)))
	out.Raw(payload)
	return out.Bytes()
}

func refEncodeMultiSet(set *MultiSet, key string) []byte {
	// Pass 1: encode point state into a scratch writer, interning pages.
	var pw codec.Writer
	dict := emu.NewPageDict()
	for _, pt := range set.Points {
		for _, cs := range pt.Cores {
			pw.Int(cs.PC)
			for _, v := range cs.Regs {
				pw.I64(v)
			}
			pw.U64(cs.FFInsts)
			cs.BP.EncodeState(&pw)
			cs.BTB.EncodeState(&pw)
			cs.RAS.EncodeState(&pw)
			prefetch.Encode(&pw, cs.PF)
		}
		pt.Hier.EncodeState(&pw)
		for _, cs := range pt.Cores {
			cs.Mem.EncodeState(&pw, dict)
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
	for _, kind := range set.PFKinds {
		w.String(kind)
	}
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
	out.Raw([]byte(multiCodecMagic))
	out.U32(multiCodecVersion)
	out.String(key)
	out.U32(crc32.ChecksumIEEE(payload))
	out.U64(uint64(len(payload)))
	out.Raw(payload)
	return out.Bytes()
}

// TestEncodeMatchesThreeBufferReference pins the single-buffer encoders to
// the reference on a single-core set (four prefetcher variants, shared
// pages) and a two-core co-scheduled set, under keys of different lengths
// (the key sits ahead of the CRC/length slot that seal patches in place).
func TestEncodeMatchesThreeBufferReference(t *testing.T) {
	set := codecCapture(t)
	for _, key := range []string{"", "k", "crisp-sim-5/ckpt/0123456789abcdef0123456789abcdef"} {
		if got, want := EncodeSet(set, key), refEncodeSet(set, key); !bytes.Equal(got, want) {
			t.Errorf("EncodeSet(key %q): %d bytes, differs from the reference's %d", key, len(got), len(want))
		}
	}
	if got, want := EncodeSet(&Set{}, "empty"), refEncodeSet(&Set{}, "empty"); !bytes.Equal(got, want) {
		t.Errorf("EncodeSet of a set without points differs from the reference")
	}

	chase, stream := chaseProgram(t), storeProgram(t)
	mset, err := CaptureMultiContext(context.Background(),
		[]*program.Program{chase, stream},
		[]*emu.Emulator{chaseEmu(t, chase), emu.New(stream, emu.NewMemory())},
		cache.DefaultHierConfig(), 128, 4, 16, []prefetch.Prefetcher{prefetch.NewBOP(), nil},
		Params{Skip: 50, Warm: 15_000, Window: 1500, Count: 3}, []float64{1.0, 0.6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mset.PFKinds = []string{"bop", "none"} // the sim layer fills this in
	for _, key := range []string{"m", "crisp-sim-5/mckpt/0123456789abcdef0123456789abcdef"} {
		got, want := EncodeMultiSet(mset, key), refEncodeMultiSet(mset, key)
		if !bytes.Equal(got, want) {
			t.Errorf("EncodeMultiSet(key %q): %d bytes, differs from the reference's %d", key, len(got), len(want))
		}
		if _, err := DecodeMultiSet(got, key); err != nil {
			t.Errorf("DecodeMultiSet of the single-buffer encoding: %v", err)
		}
	}
}
