package cache

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"crisp/internal/codec"
	"crisp/internal/dram"
)

// tinyHierConfig is a hierarchy small enough to encode in 2.4 kB: 16-line
// L1s and a 60-line LLC whose 12 sets, like Table 1's 819, are not a power
// of two.
func tinyHierConfig() HierConfig {
	return HierConfig{
		L1I:  Config{Name: "L1I", SizeKiB: 1, Ways: 2, Latency: 3, MSHRs: 2},
		L1D:  Config{Name: "L1D", SizeKiB: 1, Ways: 2, Latency: 4, MSHRs: 4},
		LLC:  Config{Name: "LLC", SizeKiB: 4, Ways: 5, Latency: 36, MSHRs: 8},
		DRAM: dram.DefaultConfig(),
	}
}

// refView is the warming half of a Hierarchy view over reference levels:
// the four Hierarchy.Warm* methods, call for call.
type refView struct {
	l1i, l1d, llc *refCache
	base          uint64
}

func newRefView(cfg HierConfig, llc *refCache, i int) refView {
	return refView{l1i: newRefCache(cfg.L1I, llc), l1d: newRefCache(cfg.L1D, llc), llc: llc, base: uint64(i) * coreAddrStride}
}

func (v refView) warmData(addr uint64, write, shared bool) {
	addr += v.base
	if v.l1d.Warm(addr, write) {
		if shared && write {
			v.llc.MarkDirty(addr)
		}
		return
	}
	v.llc.Warm(addr, write)
}

func (v refView) warmPrefetch(addr uint64) {
	addr += v.base
	if !v.l1d.WarmPrefetch(addr) {
		v.llc.WarmPrefetch(addr)
	}
}

func (v refView) warmInst(addr uint64) {
	addr += v.base
	if !v.l1i.Warm(addr, false) {
		v.llc.Warm(addr, false)
	}
}

// warmBoth applies the same random warming stream to a view and to its
// reference twin.
func warmBoth(rng *rand.Rand, h *Hierarchy, ref refView, shared bool, n int) {
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(300)) * 64
		switch rng.Intn(4) {
		case 0:
			h.WarmInst(addr)
			ref.warmInst(addr)
		case 1:
			h.WarmPrefetch(addr)
			ref.warmPrefetch(addr)
		default:
			write := rng.Intn(3) == 0
			if shared {
				h.WarmDataShared(addr, write)
			} else {
				h.WarmData(addr, write)
			}
			ref.warmData(addr, write, shared)
		}
	}
}

// TestEncodeMatchesReference pins the stored format: a warmed private and a
// warmed 2-view shared hierarchy encode to exactly the bytes the AoS
// encoder (refcache_test.go) writes for the same warming stream, so
// checkpoints stored before the tag store was packed stay readable and
// their content keys stay valid. The bytes then decode and re-encode to
// themselves.
func TestEncodeMatchesReference(t *testing.T) {
	cfg := tinyHierConfig()

	t.Run("private", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		h := NewHierarchy(cfg)
		ref := newRefView(cfg, newRefCache(cfg.LLC, nil), 0)
		warmBoth(rng, h, ref, false, 4000)

		var got, want codec.Writer
		h.EncodeState(&got)
		ref.l1i.EncodeState(&want)
		ref.l1d.EncodeState(&want)
		ref.llc.EncodeState(&want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("private hierarchy encodes to different bytes than the reference encoder")
		}

		back, err := DecodeHierarchy(codec.NewReader(got.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var again codec.Writer
		back.EncodeState(&again)
		if !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Errorf("decode then encode changed the bytes")
		}
		var cloned codec.Writer
		h.Clone().EncodeState(&cloned)
		if !bytes.Equal(cloned.Bytes(), got.Bytes()) {
			t.Errorf("Clone encodes to different bytes than its template")
		}
	})

	t.Run("shared2", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		sh := NewSharedHierarchy(cfg, 2)
		llc := newRefCache(cfg.LLC, nil)
		refs := []refView{newRefView(cfg, llc, 0), newRefView(cfg, llc, 1)}
		for round := 0; round < 40; round++ { // the cores interleave
			for i, v := range sh.Views {
				warmBoth(rng, v, refs[i], true, 50)
			}
		}

		var got, want codec.Writer
		sh.EncodeState(&got)
		want.U32(2)
		for _, r := range refs {
			r.l1i.EncodeState(&want)
			r.l1d.EncodeState(&want)
		}
		llc.EncodeState(&want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("shared hierarchy encodes to different bytes than the reference encoder")
		}

		back, err := DecodeSharedHierarchy(codec.NewReader(got.Bytes()), cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		var again codec.Writer
		back.EncodeState(&again)
		if !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Errorf("decode then encode changed the bytes")
		}
		var cloned codec.Writer
		sh.CloneState().EncodeState(&cloned)
		if !bytes.Equal(cloned.Bytes(), got.Bytes()) {
			t.Errorf("CloneState encodes to different bytes than its template")
		}
	})
}

// encodedLineBytes is the size of one line in the encoded form, and
// encodedLineAt the offset of line i of the first level (behind its u32
// count).
const encodedLineBytes = 8 + 1 + 8 + 8 + 1

func encodedLineAt(i int) int { return 4 + i*encodedLineBytes }

// warmedTinyBytes returns the encoding of a warmed tiny hierarchy.
func warmedTinyBytes() []byte {
	h := NewHierarchy(tinyHierConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(300)) * 64
		h.WarmInst(addr)
		h.WarmData(addr+64, rng.Intn(3) == 0)
		h.WarmPrefetch(addr + 128)
	}
	var w codec.Writer
	h.EncodeState(&w)
	return w.Bytes()
}

// In memory the flags live in the low bits of the tag word, so a stored
// address with low bits set, or a stored flags byte with an unknown bit,
// would alias another line's state if it were packed. DecodeState must
// refuse both.
func TestDecodeRejectsUnpackableLines(t *testing.T) {
	good := warmedTinyBytes()
	if _, err := DecodeHierarchy(codec.NewReader(good), tinyHierConfig()); err != nil {
		t.Fatalf("unmodified bytes: %v", err)
	}
	for _, c := range []struct {
		name string
		off  int
		bit  byte
	}{
		{"misaligned address (valid bit position)", encodedLineAt(3), 1 << 0},
		{"misaligned address (top line-offset bit)", encodedLineAt(3), 1 << 5},
		{"unknown flag bit 3", encodedLineAt(5) + 8, 1 << 3},
		{"unknown flag bit 7", encodedLineAt(5) + 8, 1 << 7},
	} {
		bad := append([]byte(nil), good...)
		bad[c.off] |= c.bit
		_, err := DecodeHierarchy(codec.NewReader(bad), tinyHierConfig())
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
		} else if !strings.Contains(err.Error(), "L1I line") {
			t.Errorf("%s: error %q does not name the level and line", c.name, err)
		}
	}
}

// FuzzDecodeHierarchy feeds arbitrary bytes to the hierarchy decoder. It
// must never panic; it must allocate the fixed geometry and nothing sized
// by the input; and whatever it accepts must encode back to the bytes it
// consumed, so no two inputs decode to one state.
func FuzzDecodeHierarchy(f *testing.F) {
	good := warmedTinyBytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[encodedLineAt(7)+8] ^= 1 << 4
	f.Add(flipped)

	cfg := tinyHierConfig()
	// What building the hierarchy costs, plus slack for an error value and
	// whatever the fuzzing engine allocates alongside.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	NewHierarchy(cfg)
	runtime.ReadMemStats(&ms)
	budget := 2*(ms.TotalAlloc-before) + 64<<10

	f.Fuzz(func(t *testing.T, data []byte) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		r := codec.NewReader(data)
		h, err := DecodeHierarchy(r, cfg)
		runtime.ReadMemStats(&ms)
		if got := ms.TotalAlloc - before; got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), got, budget)
		}
		if err != nil {
			return
		}
		var w codec.Writer
		h.EncodeState(&w)
		if consumed := data[:len(data)-r.Remaining()]; !bytes.Equal(w.Bytes(), consumed) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(consumed))
		}
	})
}
