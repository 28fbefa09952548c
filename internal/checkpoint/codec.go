package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
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
// capture (workload, input variant, schedule, warmed geometry), so a
// simulator change misses every stale file instead of deserializing
// wrong state. codecVersion tracks the byte layout itself and bumps
// independently: a layout change invalidates old files even when the
// simulated behaviour (and hence the content key) is unchanged. The CRC
// covers the payload, so a torn or bit-flipped entry decodes to a clean
// error — callers treat that as a miss, delete the file and recapture.
//
// Payload (version 2):
//
//	string hierJSON | u64 ffInsts | i64 hostNS |
//	u64 imagePages | u32 imageSum | u32 pointCount |
//	page dict (u32 count, raw 4 KiB pages) |
//	per point: pc, regs, ffInsts, TAGE, BTB, RAS,
//	           u32 variantCount, per variant (sorted by name):
//	               string name | hierarchy | prefetcher |
//	           memory page table (page numbers -> dict indices)
//
// A set is stored as a delta over the workload image its capture started
// from (Set.Image). The image is not in the file: like the program, it is
// something the reader builds from the workload the content key names.
// A point's page table lists only the pages that are not pointer-identical
// to the image's page at the same number. Identity is enough because pages
// are copy-on-write and a frozen page is never written again: the capture
// forks the image before its first instruction, every later snapshot
// descends from that fork, and a store copies a shared page before
// changing it, so a page a point still shares with the image reads as the
// image does, and a page that differs in content is a different array. On
// seven of the eight sampled-sweep apps no page of any point differs.
//
// imagePages and imageSum are the image's emu.ImageID, its resident page
// count and a CRC-32 over its page numbers and contents. DecodeSet returns
// a set whose points hold only their listed pages and refuse to Restore;
// Set.Attach recomputes the ID of the image it is handed, refuses one that
// differs in either field — the other input variant, a kernel whose
// initialiser changed without a CodeVersion bump — and lays each point's
// pages over it. A point that lists none shares the image's page table.
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
	codecVersion = 2
)

// maxPoints bounds the decoded point count (a schedule has tens of
// windows; corrupt headers must not drive huge allocations).
const maxPoints = 1 << 20

// EncodeSet serializes the set under the given content key.
func EncodeSet(set *Set, key string) []byte {
	// Pass 1: encode point state into a scratch writer, interning pages.
	var pw codec.Writer
	dict := emu.NewPageDict()
	for i, pt := range set.Points {
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
		pt.Mem.EncodeState(&pw, dict, set.Image)
		if i == 0 {
			growForPoints(&pw, len(set.Points))
		}
	}

	// Pass 2: assemble the payload with the dict ahead of the page
	// tables that reference it.
	w := openContainer(codecMagic, codecVersion, key)
	w.String(hierJSON(set.Hier))
	w.U64(set.FFInsts)
	w.I64(set.HostNS)
	encodeImageID(&w.Writer, set.Image, set.imageID)
	w.U32(uint32(len(set.Points)))
	return w.seal(dict, &pw)
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

// encodeImageID writes the ID of the image a set is a delta over: the
// image's own when the set has it, else the one it was decoded with.
func encodeImageID(w *codec.Writer, image *emu.Memory, decoded emu.ImageID) {
	if image != nil {
		decoded = image.ID()
	}
	w.U64(decoded.Pages)
	w.U32(decoded.Sum)
}

// growForPoints sizes the pass-1 writer once its first of n points is
// encoded: every point holds the same structures at the same geometry, so
// the rest will each take about what the first took (one point of slack
// covers page tables and prefetcher tables that grew). An estimate that
// falls short only costs an append-growth.
func growForPoints(pw *codec.Writer, n int) { pw.Grow(pw.Len() * n) }

// container assembles a set file — the envelope shared by the single- and
// multi-core codecs around a payload of head fields, page dict and point
// state — in one buffer, so a 24 MB set is written once and never copied
// between append-grown buffers: the head goes straight behind a reserved
// CRC/length slot, and seal, which knows the size of everything still to
// come, grows the buffer once, appends the rest and fills the slot in.
type container struct {
	codec.Writer
	slot int // offset of u32 crc | u64 len; the payload starts 12 bytes on
}

func openContainer(magic string, version uint32, key string) *container {
	c := &container{}
	c.Raw([]byte(magic))
	c.U32(version)
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
// has been given the workload image. Encoding an unattached set gives back
// the bytes it was decoded from.
func DecodeSet(data []byte, expectKey string) (*Set, error) {
	p, err := openPayload(data, codecMagic, codecVersion, expectKey)
	if err != nil {
		return nil, err
	}
	set := &Set{}
	if set.Hier, err = decodeHierJSON(p); err != nil {
		return nil, err
	}
	set.FFInsts = p.U64()
	set.HostNS = p.I64()
	set.imageID = emu.ImageID{Pages: p.U64(), Sum: p.U32()}
	n := int(p.U32())
	if err := p.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > maxPoints {
		return nil, fmt.Errorf("checkpoint: point count %d out of range", n)
	}
	dict, err := emu.DecodePageDict(p)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		pt := &Point{PC: p.Int(), unattached: true}
		for j := range pt.Regs {
			pt.Regs[j] = p.I64()
		}
		pt.FFInsts = p.U64()
		if pt.BP, err = branch.DecodeTAGE(p); err != nil {
			return nil, fmt.Errorf("checkpoint: point %d: %w", i, err)
		}
		if pt.BTB, err = branch.DecodeBTB(p); err != nil {
			return nil, fmt.Errorf("checkpoint: point %d: %w", i, err)
		}
		if pt.RAS, err = branch.DecodeRAS(p); err != nil {
			return nil, fmt.Errorf("checkpoint: point %d: %w", i, err)
		}
		nv := int(p.U32())
		if err := p.Err(); err != nil {
			return nil, err
		}
		if nv < 0 || nv > 64 {
			return nil, fmt.Errorf("checkpoint: point %d: variant count %d out of range", i, nv)
		}
		pt.Variants = make(map[string]*Variant, nv)
		for j, prev := 0, ""; j < nv; j++ {
			name := p.String()
			if j > 0 && name <= prev {
				return nil, fmt.Errorf("checkpoint: point %d: variant %q does not follow %q", i, name, prev)
			}
			prev = name
			v := &Variant{}
			if v.Hier, err = cache.DecodeHierarchy(p, set.Hier); err != nil {
				return nil, fmt.Errorf("checkpoint: point %d variant %q: %w", i, name, err)
			}
			if v.PF, err = prefetch.Decode(p); err != nil {
				return nil, fmt.Errorf("checkpoint: point %d variant %q: %w", i, name, err)
			}
			pt.Variants[name] = v
		}
		if pt.Mem, err = emu.DecodeMemory(p, dict); err != nil {
			return nil, fmt.Errorf("checkpoint: point %d: %w", i, err)
		}
		set.Points = append(set.Points, pt)
	}
	if err := closePayload(p, dict, n); err != nil {
		return nil, err
	}
	return set, nil
}

// openPayload checks a set file's envelope — magic, codec version, content
// key when expectKey is non-empty, payload length and CRC — and returns a
// reader over the payload.
func openPayload(data []byte, magic string, version uint32, expectKey string) (*codec.Reader, error) {
	r := codec.NewReader(data)
	if got := string(r.Raw(len(magic))); got != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q, want %q", got, magic)
	}
	if v := r.U32(); v != version {
		return nil, fmt.Errorf("checkpoint: %s codec version %d, want %d", magic, v, version)
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
