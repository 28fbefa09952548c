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

// levels lists a private hierarchy's caches in encoding order.
func levels(h *Hierarchy) []*Cache { return []*Cache{h.L1I, h.L1D, h.LLC} }

// sharedLevels lists a shared hierarchy's caches in encoding order.
func sharedLevels(sh *SharedHierarchy) []*Cache {
	var out []*Cache
	for _, v := range sh.Views {
		out = append(out, v.L1I, v.L1D)
	}
	return append(out, sh.LLC)
}

// TestEncodeMatchesReference pins what the dense line form carries, with
// the version-1 codec (refcache_test.go) as the account of a level's
// state. A warmed private and a warmed 2-view shared hierarchy hold, by
// that account, exactly what the AoS reference holds after the same
// warming stream; decoding their dense encoding gives hierarchies that
// hold the same again; and the dense bytes decode and re-encode to
// themselves, as do a clone's and a version-1 decode's.
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
		state := refEncode(levels(h)...)
		if !bytes.Equal(state, want.Bytes()) {
			t.Fatalf("private hierarchy holds different state than the reference")
		}
		if 3*got.Len() > len(state) {
			t.Errorf("dense encoding takes %d bytes, version 1 took %d: not a third", got.Len(), len(state))
		}

		back, err := DecodeHierarchy(codec.NewReader(got.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refEncode(levels(back)...), state) {
			t.Errorf("encode then decode changed the state")
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
		old, r := NewHierarchy(cfg), codec.NewReader(state)
		for _, c := range levels(old) {
			if err := c.refDecodeState(r); err != nil {
				t.Fatal(err)
			}
		}
		var fromOld codec.Writer
		old.EncodeState(&fromOld)
		if !bytes.Equal(fromOld.Bytes(), got.Bytes()) {
			t.Errorf("a version-1 decode of the state encodes to different bytes")
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
		for _, r := range refs {
			r.l1i.EncodeState(&want)
			r.l1d.EncodeState(&want)
		}
		llc.EncodeState(&want)
		state := refEncode(sharedLevels(sh)...)
		if !bytes.Equal(state, want.Bytes()) {
			t.Fatalf("shared hierarchy holds different state than the reference")
		}

		back, err := DecodeSharedHierarchy(codec.NewReader(got.Bytes()), cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refEncode(sharedLevels(back)...), state) {
			t.Errorf("encode then decode changed the state")
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

	// Timed accesses leave what warming never does: fill times, fill depths
	// and lines still in flight. The optional fields must carry them.
	t.Run("timed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		h := NewHierarchy(cfg)
		for cycle := uint64(1); cycle < 3000; cycle += uint64(rng.Intn(5)) {
			h.Data(uint64(rng.Intn(64)), uint64(rng.Intn(300))*64, rng.Intn(4) == 0, cycle)
		}
		state := refEncode(levels(h)...)
		var got codec.Writer
		h.EncodeState(&got)
		back, err := DecodeHierarchy(codec.NewReader(got.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refEncode(levels(back)...), state) {
			t.Errorf("encode then decode changed the state")
		}
		fields := 0
		for _, off := range lineOffsets(t, got.Bytes(), h.L1D) {
			if got.Bytes()[off]&(encReadyAt|encDepth) == encReadyAt|encDepth {
				fields++
			}
		}
		if fields == 0 {
			t.Errorf("no L1D line carries a fill time and depth: the case is not exercised")
		}
	})
}

// lineOffsets walks the encoding of the hierarchy c belongs to and returns
// the offset of each of c's lines' head bytes. c must be the first level
// (L1I) or the second (L1D) of a tiny hierarchy.
func lineOffsets(t testing.TB, b []byte, c *Cache) []int {
	t.Helper()
	r := codec.NewReader(b)
	var offs []int
	for level := 0; ; level++ {
		n := int(r.U32())
		r.Uvarint()
		offs = offs[:0]
		for i := 0; i < n; i++ {
			offs = append(offs, len(b)-r.Remaining())
			head := r.U8()
			if head != 0 {
				r.Uvarint()
				r.Uvarint()
			}
			if head&encReadyAt != 0 {
				r.Uvarint()
			}
			if head&encDepth != 0 {
				r.U8()
			}
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if level == 1 || c.cfg.Name == "L1I" {
			return offs
		}
	}
}

// warmedTiny returns a warmed tiny hierarchy and its encoding.
func warmedTiny() (*Hierarchy, []byte) {
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
	return h, w.Bytes()
}

// TestDecodeRejectsUnpackableLines: a line must decode from exactly one
// byte string. In memory the flags live in the low bits of the tag word, so
// a stored word with a bit set between them and the line address would
// alias another line's state; a stamp ahead of the clock would wrap; and a
// present line that is all zero, a head with unknown bits, or an announced
// field that is zero each spell a state the encoder writes another way.
func TestDecodeRejectsUnpackableLines(t *testing.T) {
	h, good := warmedTiny()
	if _, err := DecodeHierarchy(codec.NewReader(good), tinyHierConfig()); err != nil {
		t.Fatalf("unmodified bytes: %v", err)
	}
	offs := lineOffsets(t, good, h.L1I)
	// A present line whose stamp is one byte and trails the clock, so the
	// edits below change its fields without moving any later byte.
	line, clock := -1, h.L1I.lruClock
	for i, off := range offs {
		if good[off] == encPresent && h.L1I.tags[i] >= 1<<7 && h.L1I.tags[i] < 1<<14 && clock-h.L1I.lru[i] < 1<<7 {
			line = i
		}
	}
	if line < 0 {
		t.Fatal("no L1I line with a two-byte tag word and a one-byte stamp")
	}
	at := offs[line]
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	zeroLine := func(b []byte) []byte { // line becomes head | tag 0 | distance = clock: all zero
		var w codec.Writer
		w.Raw(b[:at])
		w.U8(encPresent)
		w.Uvarint(0)
		w.Uvarint(clock)
		w.Raw(b[at+4:])
		return w.Bytes()
	}
	for _, c := range []struct {
		name, want string
		in         []byte
	}{
		{"tag bit 3, between flags and address", "between the flags", edit(func(b []byte) { b[at+1] |= 1 << 3 })},
		{"tag bit 5, between flags and address", "between the flags", edit(func(b []byte) { b[at+1] |= 1 << 5 })},
		{"head bit 3", "head byte", edit(func(b []byte) { b[at] |= 1 << 3 })},
		{"head without the present bit", "head byte", edit(func(b []byte) { b[at] = encReadyAt; b[at+4] = 1 })},
		{"stamp ahead of the clock", "ahead of the clock", edit(func(b []byte) { b[at+3] = 0x7f; b[4] = 0x7e; b[5] = 0 })},
		{"announced fill time is zero", "announces a field", edit(func(b []byte) { b[at] |= encReadyAt; b[at+4] = 0 })},
		{"announced depth is zero", "announces a field", edit(func(b []byte) { b[at] |= encDepth; b[at+4] = 0 })},
		{"present but all zero", "present but all zero", zeroLine(good)},
		{"padded varint", "varint", edit(func(b []byte) { b[at+3] = 0x80; b[at+4] = 0 })},
	} {
		_, err := DecodeHierarchy(codec.NewReader(c.in), tinyHierConfig())
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want one containing %q", c.name, err, c.want)
		} else if !strings.Contains(err.Error(), "L1I line") && !strings.Contains(err.Error(), "codec:") {
			t.Errorf("%s: error %q does not name the level and line", c.name, err)
		}
	}
}

// TestDecodeRejectsHostileGeometry: the hierarchy decoders are handed a
// configuration that was itself read from disk. One that would panic a
// constructor, or size tables beyond the bytes there to fill them, must
// fail before anything is built.
func TestDecodeRejectsHostileGeometry(t *testing.T) {
	_, good := warmedTiny()
	for name, edit := range map[string]func(c *HierConfig){
		"zero ways":          func(c *HierConfig) { c.L1D.Ways = 0 },
		"negative size":      func(c *HierConfig) { c.LLC.SizeKiB = -4 },
		"line size 48":       func(c *HierConfig) { c.L1I.LineSize = 48 },
		"line size 4":        func(c *HierConfig) { c.L1I.LineSize = 4 },
		"negative MSHRs":     func(c *HierConfig) { c.L1D.MSHRs = -1 },
		"a billion MSHRs":    func(c *HierConfig) { c.L1D.MSHRs = 1 << 30 },
		"negative banks":     func(c *HierConfig) { c.DRAM.Banks = -16 },
		"a billion banks":    func(c *HierConfig) { c.DRAM.Banks = 1 << 30 },
		"1 GiB LLC, 2 kB in": func(c *HierConfig) { c.LLC.SizeKiB = 1 << 20 },
	} {
		cfg := tinyHierConfig()
		edit(&cfg)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, err := DecodeHierarchy(codec.NewReader(good), cfg)
		_, err2 := DecodeSharedHierarchy(codec.NewReader(append([]byte{1, 0, 0, 0}, good...)), cfg, 1)
		runtime.ReadMemStats(&ms)
		if err == nil || err2 == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if got := ms.TotalAlloc - before; got > 64<<10 {
			t.Errorf("%s: refusing allocated %d bytes", name, got)
		}
	}
}

// TestHintCoversAdmittedWays: the decoder admits 1024 ways and no more, and
// the way hint counts that far. A narrower hint would still be safe, the
// tag compare sees to that, but on a geometry read from disk it would name
// another way than the one found and send every lookup to the scan.
func TestHintCoversAdmittedWays(t *testing.T) {
	cfg := tinyHierConfig()
	cfg.LLC = Config{Name: "LLC", SizeKiB: 64, Ways: 1 << 10, Latency: 36, MSHRs: 8}
	if err := cfg.checkDecodable(1, 1<<20); err != nil {
		t.Fatalf("1024 ways refused: %v", err)
	}
	c := New(cfg.LLC, nil)
	for i := uint64(0); i < 1<<10; i++ {
		c.Warm(i*64, false)
	}
	if c.sets != 1 || c.hint[0] != 1<<10-1 {
		t.Errorf("%d set(s), hint %d after filling way 1023", c.sets, c.hint[0])
	}
	if c.Warm(1000*64, false); c.hint[0] != 1000 {
		t.Errorf("hint %d after a hit in way 1000", c.hint[0])
	}
	cfg.LLC.Ways++
	if err := cfg.checkDecodable(1, 1<<20); err == nil {
		t.Errorf("1025 ways admitted: the hint's width was chosen for 1024")
	}
}

// FuzzDecodeHierarchy feeds arbitrary bytes to the hierarchy decoder. It
// must never panic; it must allocate the fixed geometry and nothing sized
// by the input; whatever it accepts must encode back to the bytes it
// consumed, so no two inputs decode to one state; and a thousand warming
// calls later it must hold what the reference levels hold.
func FuzzDecodeHierarchy(f *testing.F) {
	h, good := warmedTiny()
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[lineOffsets(f, good, h.L1I)[7]] ^= 1 << 4
	f.Add(flipped)
	// A fill time and a depth behind the first line of each level.
	timed := NewHierarchy(tinyHierConfig())
	timed.Data(1, 0x40, false, 10)
	var tw codec.Writer
	timed.EncodeState(&tw)
	f.Add(tw.Bytes())
	// Every set's last way holding its first way's line a second time.
	twice, _ := warmedTiny()
	for _, c := range []*Cache{twice.L1D, twice.LLC} {
		for base := 0; base < len(c.tags); base += c.cfg.Ways {
			c.tags[base+c.cfg.Ways-1] = c.tags[base]
		}
	}
	var dw codec.Writer
	twice.EncodeState(&dw)
	f.Add(dw.Bytes())

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
		consumed := data[:len(data)-r.Remaining()]
		if !bytes.Equal(w.Bytes(), consumed) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(consumed))
		}

		// What was accepted warms like the reference holding the same lines,
		// whether it was decoded into new levels or over used ones. Accepted
		// bytes may hold a line twice in a set, or in a set it does not
		// index to: the one state in which a way hint left over from the
		// overwritten lines would find another copy than the scan.
		used, _ := warmedTiny()
		ur := codec.NewReader(consumed)
		for _, c := range []*Cache{used.L1I, used.L1D, used.LLC} {
			if err := c.DecodeState(ur); err != nil {
				t.Fatalf("decoding over a used hierarchy: %v", err)
			}
		}
		old := NewHierarchy(cfg)
		or := codec.NewReader(refEncode(h.L1I, h.L1D, h.LLC))
		for _, c := range []*Cache{old.L1I, old.L1D, old.LLC} {
			if err := c.refDecodeState(or); err != nil {
				t.Fatalf("version-1 decode of the accepted state: %v", err)
			}
		}
		ref := refViewOf(h)
		resident := append(append(append([]uint64(nil), h.L1D.tags...), h.LLC.tags...), h.L1I.tags...)
		rng := rand.New(rand.NewSource(int64(len(data))))
		for i := 0; i < 1000; i++ {
			addr := uint64(rng.Intn(300)) * 64
			if rng.Intn(2) == 0 {
				addr = resident[rng.Intn(len(resident))] &^ lineFlags
			}
			op, write := rng.Intn(4), rng.Intn(3) == 0
			if i < len(resident) { // first every line it came with, as data: each set's first lookup
				addr, op = resident[i]&^lineFlags, 2
			}
			for _, h := range []*Hierarchy{h, used, old} {
				switch op {
				case 0:
					h.WarmInst(addr)
				case 1:
					h.WarmPrefetch(addr)
				default:
					h.WarmDataShared(addr, write)
				}
			}
			switch op {
			case 0:
				ref.warmInst(addr)
			case 1:
				ref.warmPrefetch(addr)
			default:
				ref.warmData(addr, write, true)
			}
		}
		var want codec.Writer
		ref.l1i.EncodeState(&want)
		ref.l1d.EncodeState(&want)
		ref.llc.EncodeState(&want)
		for name, h := range map[string]*Hierarchy{"decoded": h, "decoded over a used hierarchy": used, "decoded by the version-1 decoder": old} {
			if !bytes.Equal(refEncode(h.L1I, h.L1D, h.LLC), want.Bytes()) {
				t.Fatalf("%s, then warmed: holds different lines than the reference warmed alike", name)
			}
		}
	})
}

// refViewOf returns reference levels holding h's lines and clocks.
func refViewOf(h *Hierarchy) refView {
	of := func(c *Cache, next Backend) *refCache {
		r := newRefCache(c.cfg, next)
		for i, t := range c.tags {
			r.lines[i] = refLine{tag: t &^ lineFlags, valid: t&lineValid != 0, dirty: t&lineDirty != 0,
				prefetched: t&linePrefetched != 0, readyAt: c.readyAt[i], lru: c.lru[i], fillDepth: c.depth[i]}
		}
		r.lruClock = c.lruClock
		return r
	}
	llc := of(h.LLC, nil)
	return refView{l1i: of(h.L1I, llc), l1d: of(h.L1D, llc), llc: llc}
}
