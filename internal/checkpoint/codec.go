package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"crisp/internal/branch"
	"crisp/internal/cache"
	"crisp/internal/codec"
	"crisp/internal/emu"
	"crisp/internal/prefetch"
)

// Binary container for a Set on disk. Layout:
//
//	magic "CRSPCKP1" | u32 codecVersion | string contentKey |
//	u32 crc32(payload) | u64 len(payload) | payload
//
// The content key embeds sim.CodeVersion plus everything that shapes a
// capture (workloads, input variants, schedule, warmed geometry, and for
// a co-scheduled set the prefetcher tuple), so a simulator change misses
// every stale file instead of deserializing wrong state. codecVersion
// tracks the byte layout itself and bumps independently: a layout change
// invalidates old files even when the simulated behaviour (and hence the
// content key) is unchanged. The CRC covers the payload, so a torn or
// bit-flipped entry decodes to a clean error — callers treat that as a
// miss, delete the file and recapture.
//
// Payload (version 6; page numbers, imagePages and the dict's pages are in
// units of emu.PageSize, so a page-size change is a version change; a
// hierarchy is a cache.Template's lines, tag words and LRU ranks):
//
//	string hierJSON | u32 cores | u64 ffInsts | i64 hostNS |
//	per core: u64 imagePages, u32 imageSum, f64 pace, u64 windowInsts,
//	          u64 ffInsts |
//	u32 pointCount | page dict (shared across cores and points) |
//	per point:
//	    per core: pc, regs, ffInsts, TAGE, BTB, RAS |
//	    u32 variantCount, per variant (sorted by name):
//	        string name | hierarchy (per-core L1I/L1D, the LLC once) |
//	        per core: prefetcher training state |
//	    per core: memory page table (page numbers -> dict indices)
//
// Every per-core field is written exactly cores times. Versions 1 to 4
// were two containers, this one for a single-core set and "CRSPMCK1" for
// a co-scheduled one; a file of either is a miss.
//
// A warmed structure is written as its constructor's arguments, then its
// training state, and its decoder calls the constructor and reads only the
// state, so no shape the constructors cannot build can be read back. A
// TAGE's arguments are its two table sizes. A prefetcher has none: its kind
// is the one its variant's name lists for its core (VariantName), so a name
// must list one known kind a core, and what is written of it is its tables
// and counters alone. A hierarchy's geometry is the set's configuration.
// Version 5 wrote every prefetcher's kind tag, capacities and tunables and
// every TAGE table's derived fields besides; a version-5 file is a miss.
//
// Each core's memories are stored as a delta over the workload image its
// capture started from (Set.Images). The images are not in the file: like
// the programs, they are something the reader builds from the workloads
// the content key names. A point's page table lists only the pages that
// are not pointer-identical to the image's page at the same number.
// Identity is enough because pages are copy-on-write and a frozen page is
// never written again: the capture forks the image before its first
// instruction, every later snapshot descends from that fork, and a store
// copies a shared page before changing it, so a page a point still shares
// with the image reads as the image does, and a page that differs in
// content is a different array. On seven of the eight sampled-sweep apps
// no page of any point differs.
//
// imagePages and imageSum are a core's image's emu.ImageID, its resident
// page count and a CRC-32 over its page numbers and contents. DecodeSet
// returns a set whose points hold only their listed pages and refuse to
// Restore; Set.Attach recomputes the ID of every image it is handed,
// refuses one that differs in either field — the other input variant, a
// kernel whose initialiser changed without a CodeVersion bump — and lays
// each point's pages over it. A point that lists none shares the image's
// page table.
//
// Listed pages are interned by pointer identity across every memory in
// the set (emu.PageDict): a page written once is shared by every later
// point, and the dict stores it once. Decoding rebuilds the sharing.
//
// Every field has one encoding, and the decoder refuses what the encoder
// cannot write (variant names out of order, a configuration whose JSON is
// not what Marshal gives, dict pages no table references; the cache,
// branch and emu decoders do the same for theirs), so an accepted file
// re-encodes to itself.

const (
	codecMagic   = "CRSPCKP1"
	codecVersion = 6
)

// Decoded counts are bounded so corrupt headers cannot drive huge
// allocations: a schedule has tens of windows, sim.MaxCores is 8, and a
// one-core set warms four variants.
const (
	maxPoints   = 1 << 20
	maxCores    = 64
	maxVariants = 64
)

// EncodeSet serializes the set under the given content key.
func EncodeSet(set *Set, key string) []byte {
	// Pass 1: encode point state into a scratch writer, interning pages.
	var pw codec.Writer
	dict := emu.NewPageDict()
	for i, pt := range set.Points {
		for _, cs := range pt.Cores {
			encodeCore(&pw, cs)
		}
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
			for c := 0; c < set.Cores; c++ {
				prefetch.Encode(&pw, at(v.PFs, c, nil))
			}
		}
		for c, cs := range pt.Cores {
			cs.Mem.EncodeState(&pw, dict, at(set.Images, c, nil))
		}
		if i == 0 {
			growForPoints(&pw, len(set.Points))
		}
	}

	// Pass 2: assemble the payload with the dict ahead of the page
	// tables that reference it. A captured or attached set has its
	// images, a decoded one their IDs, one built by hand neither.
	w := openContainer(key)
	w.String(hierJSON(set.Hier))
	w.U32(uint32(set.Cores))
	w.U64(set.FFInsts)
	w.I64(set.HostNS)
	for c := 0; c < set.Cores; c++ {
		id := at(set.imageIDs, c, emu.ImageID{})
		if image := at(set.Images, c, nil); image != nil {
			id = image.ID()
		}
		w.U64(id.Pages)
		w.U32(id.Sum)
		w.U64(math.Float64bits(at(set.Pace, c, 1)))
		w.U64(at(set.WindowInsts, c, 0))
		w.U64(at(set.FFPerCore, c, 0))
	}
	w.U32(uint32(len(set.Points)))
	return w.seal(dict, &pw)
}

// at returns s[i], or def when s is too short: a set built by hand may
// leave a per-core field out.
func at[T any](s []T, i int, def T) T {
	if i < len(s) {
		return s[i]
	}
	return def
}

// encodeCore writes the state every core of every point carries: pc,
// regs, ffInsts, TAGE, BTB, RAS.
func encodeCore(w *codec.Writer, cs *CoreState) {
	w.Int(cs.PC)
	for _, v := range cs.Regs {
		w.I64(v)
	}
	w.U64(cs.FFInsts)
	cs.BP.EncodeState(w)
	cs.BTB.EncodeState(w)
	cs.RAS.EncodeState(w)
}

// decodeCore reads into cs what encodeCore wrote.
func decodeCore(p *codec.Reader, cs *CoreState) (err error) {
	cs.PC = p.Int()
	for j := range cs.Regs {
		cs.Regs[j] = p.I64()
	}
	cs.FFInsts = p.U64()
	if cs.BP, err = branch.DecodeTAGE(p); err != nil {
		return err
	}
	if cs.BTB, err = branch.DecodeBTB(p); err != nil {
		return err
	}
	cs.RAS, err = branch.DecodeRAS(p)
	return err
}

// hierJSON is the form a set's hierarchy configuration is stored in.
func hierJSON(cfg cache.HierConfig) string {
	b, err := json.Marshal(cfg)
	if err != nil { // unreachable: HierConfig is plain data
		panic(fmt.Sprintf("checkpoint: marshal HierConfig: %v", err))
	}
	return string(b)
}

// decodeHierJSON reads a configuration stored by hierJSON, refusing JSON
// that does not marshal back to itself (other spacing, unknown or repeated
// fields).
func decodeHierJSON(p *codec.Reader) (cfg cache.HierConfig, err error) {
	s := p.String()
	if err := p.Err(); err != nil {
		return cfg, err
	}
	if err := json.Unmarshal([]byte(s), &cfg); err != nil {
		return cfg, fmt.Errorf("checkpoint: decode hierarchy config: %w", err)
	}
	if hierJSON(cfg) != s {
		return cfg, fmt.Errorf("checkpoint: hierarchy config %q is not in stored form", s)
	}
	return cfg, nil
}

// growForPoints sizes the pass-1 writer once its first of n points is
// encoded: every point holds the same structures at the same geometry, so
// the rest will each take about what the first took (one point of slack
// covers page tables and prefetcher tables that grew). An estimate that
// falls short only costs an append-growth.
func growForPoints(pw *codec.Writer, n int) { pw.Grow(pw.Len() * n) }

// container assembles a set file — the envelope around a payload of head
// fields, page dict and point state — in one buffer, so a 24 MB set is written once and never copied
// between append-grown buffers: the head goes straight behind a reserved
// CRC/length slot, and seal, which knows the size of everything still to
// come, grows the buffer once, appends the rest and fills the slot in.
type container struct {
	codec.Writer
	slot int // offset of u32 crc | u64 len; the payload starts 12 bytes on
}

func openContainer(key string) *container {
	c := &container{}
	c.Raw([]byte(codecMagic))
	c.U32(codecVersion)
	c.String(key)
	c.slot = c.Len()
	c.U32(0)
	c.U64(0)
	return c
}

// seal appends the dict's pages and the point state encoded against it,
// and returns the finished file.
func (c *container) seal(dict *emu.PageDict, points *codec.Writer) []byte {
	c.Grow(dict.EncodedLen() + points.Len())
	dict.EncodePages(&c.Writer)
	c.Raw(points.Bytes())
	b := c.Bytes()
	payload := b[c.slot+12:]
	binary.LittleEndian.PutUint32(b[c.slot:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(b[c.slot+4:], uint64(len(payload)))
	return b
}

// DecodeSet deserializes a set encoded by EncodeSet, verifying the magic,
// codec version, CRC, and — when expectKey is non-empty — the content
// key. Any mismatch or truncation is an error; the caller deletes the
// file and recaptures. The set comes back unattached: its points hold
// only the pages they had written, and Restore refuses until Set.Attach
// has been given the workload images. Encoding an unattached set gives
// back the bytes it was decoded from.
func DecodeSet(data []byte, expectKey string) (*Set, error) {
	p, err := openPayload(data, expectKey)
	if err != nil {
		return nil, err
	}
	set := &Set{}
	if set.Hier, err = decodeHierJSON(p); err != nil {
		return nil, err
	}
	const headPerCore = 8 + 4 + 8 + 8 + 8
	if set.Cores, err = p.Len(uint64(p.U32()), "core count", 1, maxCores, headPerCore); err != nil {
		return nil, err
	}
	n := set.Cores
	set.FFInsts = p.U64()
	set.HostNS = p.I64()
	set.imageIDs = make([]emu.ImageID, n)
	set.Pace = make([]float64, n)
	set.WindowInsts = make([]uint64, n)
	set.FFPerCore = make([]uint64, n)
	for c := 0; c < n; c++ {
		set.imageIDs[c] = emu.ImageID{Pages: p.U64(), Sum: p.U32()}
		set.Pace[c] = math.Float64frombits(p.U64())
		set.WindowInsts[c] = p.U64()
		set.FFPerCore[c] = p.U64()
	}
	points, err := p.Len(uint64(p.U32()), "point count", 0, maxPoints, 1)
	if err != nil {
		return nil, err
	}
	dict, err := emu.DecodePageDict(p)
	if err != nil {
		return nil, err
	}
	for i := 0; i < points; i++ {
		pt, err := decodePoint(p, set, dict)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: point %d: %w", i, err)
		}
		set.Points = append(set.Points, pt)
	}
	if err := closePayload(p, dict, points); err != nil {
		return nil, err
	}
	return set, nil
}

// decodePoint reads one point of set, its page tables against dict.
func decodePoint(p *codec.Reader, set *Set, dict *emu.PageDict) (*Point, error) {
	n := set.Cores
	pt := &Point{Cores: make([]*CoreState, n), unattached: true}
	for c := range pt.Cores {
		pt.Cores[c] = &CoreState{}
		if err := decodeCore(p, pt.Cores[c]); err != nil {
			return nil, fmt.Errorf("core %d: %w", c, err)
		}
	}
	nv, err := p.Len(uint64(p.U32()), "variant count", 0, maxVariants, 1)
	if err != nil {
		return nil, err
	}
	pt.Variants = make(map[string]*Variant, nv)
	for j, prev := 0, ""; j < nv; j++ {
		name := p.String()
		if j > 0 && name <= prev {
			return nil, fmt.Errorf("variant %q does not follow %q", name, prev)
		}
		prev = name
		kinds, err := variantKinds(name, n)
		if err != nil {
			return nil, err
		}
		v := &Variant{PFs: make([]prefetch.Prefetcher, n)}
		if v.Hier, err = cache.DecodeTemplate(p, set.Hier, n); err != nil {
			return nil, fmt.Errorf("variant %q: %w", name, err)
		}
		for c, kind := range kinds {
			if v.PFs[c], err = prefetch.Decode(p, kind); err != nil {
				return nil, fmt.Errorf("variant %q core %d: %w", name, c, err)
			}
		}
		pt.Variants[name] = v
	}
	for c, cs := range pt.Cores {
		if cs.Mem, err = emu.DecodeMemory(p, dict); err != nil {
			return nil, fmt.Errorf("core %d: %w", c, err)
		}
	}
	return pt, nil
}

// openPayload checks a set file's envelope — magic, codec version, content
// key when expectKey is non-empty, payload length and CRC — and returns a
// reader over the payload.
func openPayload(data []byte, expectKey string) (*codec.Reader, error) {
	r := codec.NewReader(data)
	if got := string(r.Raw(len(codecMagic))); got != codecMagic {
		return nil, fmt.Errorf("checkpoint: bad magic %q, want %q", got, codecMagic)
	}
	if v := r.U32(); v != codecVersion {
		return nil, fmt.Errorf("checkpoint: codec version %d, want %d", v, codecVersion)
	}
	key := r.String()
	if expectKey != "" && key != expectKey {
		return nil, fmt.Errorf("checkpoint: content key %q does not match %q", key, expectKey)
	}
	crc := r.U32()
	plen := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if plen != uint64(r.Remaining()) {
		return nil, fmt.Errorf("checkpoint: payload length %d, have %d bytes", plen, r.Remaining())
	}
	payload := r.Raw(int(plen))
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("checkpoint: payload CRC %#x, want %#x", got, crc)
	}
	return codec.NewReader(payload), nil
}

// EncodeMultiSet is EncodeSet under the name the benchmark calls, kept
// until it stops calling it (ROADMAP item 9(iii)).
func EncodeMultiSet(set *Set, key string) []byte { return EncodeSet(set, key) }

// DecodeMultiSet is DecodeSet under the name the benchmark calls, kept
// until it stops calling it (ROADMAP item 9(iii)).
func DecodeMultiSet(data []byte, expectKey string) (*Set, error) { return DecodeSet(data, expectKey) }

// closePayload checks that the n points consumed the payload exactly and
// referenced every page of its dict.
func closePayload(p *codec.Reader, dict *emu.PageDict, n int) error {
	if err := p.Err(); err != nil {
		return err
	}
	if p.Remaining() != 0 {
		return fmt.Errorf("checkpoint: %d trailing bytes after %d points", p.Remaining(), n)
	}
	if u := dict.Unreferenced(); u != 0 {
		return fmt.Errorf("checkpoint: %d dict pages no point references", u)
	}
	return nil
}
