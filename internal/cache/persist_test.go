package cache

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
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

// levels lists a one-core system's caches, through its view, in encoding
// order.
func levels(h *Hierarchy) []*Cache { return []*Cache{h.L1I, h.L1D, h.LLC} }

// sharedLevels lists a shared hierarchy's caches in encoding order.
func sharedLevels(sh *SharedHierarchy) []*Cache {
	var out []*Cache
	for _, v := range sh.Views {
		out = append(out, v.L1I, v.L1D)
	}
	return append(out, sh.LLC)
}

// account is a level's lines as its decisions read them: each set's ways
// in the order of their stamps, ties to the lower way, then every line's
// tag word, fill time and fill depth. The stamps themselves are not in it:
// a restored level's are its ranks.
func account(ways int, tags, lru, ready []uint64, depth []int8) []byte {
	var w codec.Writer
	order := make([]int, ways)
	for base := 0; base < len(tags); base += ways {
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(a, b int) bool { return lru[base+order[a]] < lru[base+order[b]] })
		for _, j := range order {
			w.U32(uint32(j))
		}
	}
	for i, t := range tags {
		w.U64(t)
		w.U64(ready[i])
		w.I8(depth[i])
	}
	return w.Bytes()
}

// accountOf is account over a sequence of levels.
func accountOf(levels ...*Cache) []byte {
	var out []byte
	for _, c := range levels {
		out = append(out, account(c.cfg.Ways, c.tags, c.lru, c.readyAt, c.depth)...)
	}
	return out
}

// account is accountOf for a reference level.
func (c *refCache) account() []byte {
	n := len(c.lines)
	tags, lru, ready, depth := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]int8, n)
	for i, ln := range c.lines {
		tags[i] = ln.tag | flagIf(ln.valid, lineValid) | flagIf(ln.dirty, lineDirty) | flagIf(ln.prefetched, linePrefetched)
		lru[i], ready[i], depth[i] = ln.lru, ln.readyAt, ln.fillDepth
	}
	return account(c.cfg.Ways, tags, lru, ready, depth)
}

// checkTemplate checks a template frozen from sh: restored, it holds sh's
// lines in sh's LRU order; it encodes to under a third of the version-1
// bytes of sh's levels; and it decodes to itself and re-encodes to its
// bytes.
func checkTemplate(t *testing.T, tmpl *Template, sh *SharedHierarchy) {
	t.Helper()
	if !bytes.Equal(accountOf(sharedLevels(tmpl.Restore())...), accountOf(sharedLevels(sh)...)) {
		t.Errorf("freeze then restore changed the lines or their LRU order")
	}
	var got codec.Writer
	tmpl.Encode(&got)
	if v1 := len(refEncode(sharedLevels(sh)...)); 3*got.Len() > v1 {
		t.Errorf("template encodes to %d bytes, version 1 took %d: not a third", got.Len(), v1)
	}
	back, err := DecodeTemplate(codec.NewReader(got.Bytes()), sh.Views[0].cfg, len(sh.Views))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tmpl) {
		t.Errorf("encode then decode changed the template")
	}
	var again codec.Writer
	back.Encode(&again)
	if !bytes.Equal(again.Bytes(), got.Bytes()) {
		t.Errorf("decode then encode changed the bytes")
	}
}

// TestEncodeMatchesReference pins what a template keeps, with the AoS
// reference levels (refcache_test.go) warmed alike as the account of a
// level's state. A warmed one-core and a warmed 2-view shared hierarchy
// hold what the reference holds; frozen, each is a template that restores
// to the same lines in the same LRU order and survives its codec (see
// checkTemplate); and a version-1 decode of the state freezes to the same
// template.
func TestEncodeMatchesReference(t *testing.T) {
	cfg := tinyHierConfig()

	t.Run("private", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		sys := NewSharedHierarchy(cfg, 1)
		h := sys.Views[0]
		ref := newRefView(cfg, newRefCache(cfg.LLC, nil), 0)
		warmBoth(rng, h, ref, false, 4000)

		var want codec.Writer
		ref.l1i.EncodeState(&want)
		ref.l1d.EncodeState(&want)
		ref.llc.EncodeState(&want)
		state := refEncode(levels(h)...)
		if !bytes.Equal(state, want.Bytes()) {
			t.Fatalf("one-core hierarchy holds different state than the reference")
		}
		tmpl := sys.Freeze()
		checkTemplate(t, tmpl, sys)
		old, r := NewSharedHierarchy(cfg, 1), codec.NewReader(state)
		for _, c := range levels(old.Views[0]) {
			if err := c.refDecodeState(r); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(old.Freeze(), tmpl) {
			t.Errorf("a version-1 decode of the state freezes to another template")
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

		var want codec.Writer
		for _, r := range refs {
			r.l1i.EncodeState(&want)
			r.l1d.EncodeState(&want)
		}
		llc.EncodeState(&want)
		if !bytes.Equal(refEncode(sharedLevels(sh)...), want.Bytes()) {
			t.Fatalf("shared hierarchy holds different state than the reference")
		}
		checkTemplate(t, sh.Freeze(), sh)
	})

	// Timed accesses leave what warming never does: fill times, fill depths
	// and lines still in flight. A template keeps the lines and their LRU
	// order and none of that, so no line of a restored hierarchy is in
	// flight.
	t.Run("timed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		sys := NewSharedHierarchy(cfg, 1)
		for cycle := uint64(1); cycle < 3000; cycle += uint64(rng.Intn(5)) {
			sys.Views[0].Data(uint64(rng.Intn(64)), uint64(rng.Intn(300))*64, rng.Intn(4) == 0, cycle)
		}
		tmpl := sys.Freeze()
		timed := 0
		for _, c := range sharedLevels(sys) {
			for i := range c.readyAt {
				if c.readyAt[i] != 0 && c.depth[i] != 0 {
					timed++
				}
			}
			clear(c.readyAt)
			clear(c.depth)
		}
		if timed == 0 {
			t.Errorf("no line carries a fill time and depth: the case is not exercised")
		}
		checkTemplate(t, tmpl, sys)
	})
}

// lineOffsets walks a one-core template's encoding and returns the offset
// of each line of its level-th level (0 L1I, 1 L1D, 2 LLC).
func lineOffsets(t testing.TB, b []byte, level int) []int {
	t.Helper()
	r := codec.NewReader(b)
	for l := 0; ; l++ {
		var offs []int
		for i, n := 0, int(r.U32()); i < n; i++ {
			offs = append(offs, len(b)-r.Remaining())
			if r.Uvarint() != 0 {
				r.Uvarint()
			}
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if l == level {
			return offs
		}
	}
}

// warmedTiny returns the template of a warmed tiny one-core hierarchy and
// its encoding.
func warmedTiny() (*Template, []byte) {
	sys := NewSharedHierarchy(tinyHierConfig(), 1)
	h := sys.Views[0]
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(300)) * 64
		h.WarmInst(addr)
		h.WarmData(addr+64, rng.Intn(3) == 0)
		h.WarmPrefetch(addr + 128)
	}
	tmpl := sys.Freeze()
	var w codec.Writer
	tmpl.Encode(&w)
	return tmpl, w.Bytes()
}

// pairedLine returns a line of tmpl's L1I (2 ways) whose tag word encodes
// in two bytes and whose set's other way is filled too, and its offset in
// good, the template's encoding.
func pairedLine(t testing.TB, tmpl *Template, good []byte) (line, at int) {
	t.Helper()
	l1i := &tmpl.l1s[0]
	for i, off := range lineOffsets(t, good, 0) {
		if tg := l1i.tags[i]; tg >= 1<<7 && tg < 1<<14 && l1i.tags[i^1] != 0 {
			return i, off
		}
	}
	t.Fatal("no L1I line with a two-byte tag word beside another filled way")
	return 0, 0
}

// TestDecodeRejectsUnpackableLines: a template must decode from exactly one
// byte string. In memory the flags live in the low bits of the tag word,
// so a stored word with a bit set between them and the line address would
// alias another line's state, and a filled way's word has the valid bit. A
// set's ranks are 1..ways, each once, its empty ways' the lowest.
func TestDecodeRejectsUnpackableLines(t *testing.T) {
	tmpl, good := warmedTiny()
	if _, err := DecodeTemplate(codec.NewReader(good), tinyHierConfig(), 1); err != nil {
		t.Fatalf("unmodified bytes: %v", err)
	}
	// The edits below change the line's fields without moving any later
	// byte: its rank is the byte after the tag word's two.
	line, at := pairedLine(t, tmpl, good)
	other := byte(tmpl.l1s[0].ranks[line^1])
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	for _, c := range []struct {
		name, want string
		in         []byte
	}{
		{"tag bit 3, between flags and address", "between the flags", edit(func(b []byte) { b[at] |= 1 << 3 })},
		{"tag bit 5, between flags and address", "between the flags", edit(func(b []byte) { b[at] |= 1 << 5 })},
		{"tag word without the valid bit", "without the valid bit", edit(func(b []byte) { b[at] &^= lineValid })},
		{"rank above the way count", "above the way count", edit(func(b []byte) { b[at+2] = 3 })},
		{"rank twice in a set", "repeated", edit(func(b []byte) { b[at+2] = other })},
		{"rank zero", "not above", edit(func(b []byte) { b[at+2] = 0 })},
		{"padded varint", "varint", edit(func(b []byte) { b[at+2] |= 0x80; b[at+3] = 0 })},
	} {
		_, err := DecodeTemplate(codec.NewReader(c.in), tinyHierConfig(), 1)
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want one containing %q", c.name, err, c.want)
		} else if !strings.Contains(err.Error(), "L1I line") && !strings.Contains(err.Error(), "codec:") {
			t.Errorf("%s: error %q does not name the level and line", c.name, err)
		}
	}
}

// TestDecodeRejectsHostileGeometry: the template decoder is handed a
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
		_, err := DecodeTemplate(codec.NewReader(good), cfg, 1)
		_, err2 := DecodeTemplate(codec.NewReader(good), cfg, 2)
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

// v3Encode is a one-core hierarchy's lines as container version 3 wrote
// them — per level u32 count | uvarint clock, and a filled line head | tag
// word | clock distance | [fill time] | [fill depth] — kept to build the
// seed the decoder must refuse.
func v3Encode(h *Hierarchy) []byte {
	var w codec.Writer
	for _, c := range levels(h) {
		w.U32(uint32(len(c.tags)))
		w.Uvarint(c.lruClock)
		for i, t := range c.tags {
			if t == 0 {
				w.U8(0)
				continue
			}
			head := uint8(1) | uint8(flagIf(c.readyAt[i] != 0, 2)|flagIf(c.depth[i] != 0, 4))
			w.U8(head)
			w.Uvarint(t)
			w.Uvarint(c.lruClock - c.lru[i])
			if head&2 != 0 {
				w.Uvarint(c.readyAt[i])
			}
			if head&4 != 0 {
				w.I8(c.depth[i])
			}
		}
	}
	return w.Bytes()
}

// hierarchySeed is one of FuzzDecodeHierarchy's seeds and whether the
// decoder takes it.
type hierarchySeed struct {
	name string
	in   []byte
	ok   bool
}

// hierarchySeeds are a warmed template; its first half; one with bit 4 of
// an L1I line's first byte flipped (a bit between the flags and the line
// address, or an empty way's word without the valid bit); version 3's
// lines of a hierarchy with a fill time and a depth; a set holding one
// rank twice; and every set's last way holding its first way's line.
func hierarchySeeds(tb testing.TB) []hierarchySeed {
	tmpl, good := warmedTiny()
	flipped := bytes.Clone(good)
	flipped[lineOffsets(tb, good, 0)[7]] ^= 1 << 4
	timed := NewHierarchy(tinyHierConfig())
	timed.Data(1, 0x40, false, 10)
	line, at := pairedLine(tb, tmpl, good)
	twiceRank := bytes.Clone(good)
	twiceRank[at+2] = byte(tmpl.l1s[0].ranks[line^1])
	twice, _ := warmedTiny()
	for _, l := range []*Lines{&twice.l1s[1], &twice.LLC} {
		for base := 0; base < len(l.tags); base += l.ways {
			if last := base + l.ways - 1; l.tags[base] != 0 && l.tags[last] != 0 {
				l.tags[last] = l.tags[base]
			}
		}
	}
	var tw codec.Writer
	twice.Encode(&tw)
	return []hierarchySeed{
		{"warmed", good, true},
		{"half", good[:len(good)/2], false},
		{"flipped", flipped, false},
		{"timed", v3Encode(timed), false},
		{"twice", tw.Bytes(), true},
		{"rank twice", twiceRank, false},
	}
}

// TestHierarchyFuzzSeedsAreWhatTheySay keeps FuzzDecodeHierarchy's seeds
// honest: the ones the decoder takes re-encode to themselves, and it
// refuses the others.
func TestHierarchyFuzzSeedsAreWhatTheySay(t *testing.T) {
	for _, s := range hierarchySeeds(t) {
		tmpl, err := DecodeTemplate(codec.NewReader(s.in), tinyHierConfig(), 1)
		if (err == nil) != s.ok {
			t.Errorf("%s: decoded %v, want %v (err %v)", s.name, err == nil, s.ok, err)
			continue
		}
		if s.ok {
			var w codec.Writer
			tmpl.Encode(&w)
			if !bytes.Equal(w.Bytes(), s.in) {
				t.Errorf("%s: re-encodes to other bytes", s.name)
			}
		}
	}
}

// FuzzDecodeHierarchy feeds arbitrary bytes to the template decoder. It
// must never panic; it must allocate the fixed geometry and nothing sized
// by the input; whatever it accepts must encode back to the bytes it
// consumed, so no two inputs decode to one template; and, restored, a
// thousand warming calls later it must hold what reference levels hold
// that were given the same lines under other stamps of the same order.
func FuzzDecodeHierarchy(f *testing.F) {
	for _, s := range hierarchySeeds(f) {
		f.Add(s.in)
	}

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
		tmpl, err := DecodeTemplate(r, cfg, 1)
		runtime.ReadMemStats(&ms)
		if got := ms.TotalAlloc - before; got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), got, budget)
		}
		if err != nil {
			return
		}
		var w codec.Writer
		tmpl.Encode(&w)
		consumed := data[:len(data)-r.Remaining()]
		if !bytes.Equal(w.Bytes(), consumed) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(consumed))
		}

		// Restored, it warms like the reference levels holding the same
		// lines, whose stamps are three times the ranks plus one: a window
		// reads the order of the stamps, never their values. Accepted bytes
		// may hold a line twice in a set, or in a set it does not index to.
		h := tmpl.Restore().Views[0]
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
			switch op {
			case 0:
				h.WarmInst(addr)
				ref.warmInst(addr)
			case 1:
				h.WarmPrefetch(addr)
				ref.warmPrefetch(addr)
			default:
				h.WarmDataShared(addr, write)
				ref.warmData(addr, write, true)
			}
		}
		want := append(append(ref.l1i.account(), ref.l1d.account()...), ref.llc.account()...)
		if !bytes.Equal(accountOf(levels(h)...), want) {
			t.Fatalf("restored, then warmed: holds different lines than the reference warmed alike")
		}
	})
}

// refViewOf returns reference levels holding h's lines, each stamp and
// clock c mapped to 3c+1.
func refViewOf(h *Hierarchy) refView {
	of := func(c *Cache, next Backend) *refCache {
		r := newRefCache(c.cfg, next)
		for i, t := range c.tags {
			r.lines[i] = refLine{tag: t &^ lineFlags, valid: t&lineValid != 0, dirty: t&lineDirty != 0,
				prefetched: t&linePrefetched != 0, readyAt: c.readyAt[i], lru: 3*c.lru[i] + 1, fillDepth: c.depth[i]}
		}
		r.lruClock = 3*c.lruClock + 1
		return r
	}
	llc := of(h.LLC, nil)
	return refView{l1i: of(h.L1I, llc), l1d: of(h.L1D, llc), llc: llc}
}
