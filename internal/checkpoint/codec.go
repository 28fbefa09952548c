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
// Payload:
//
//	string hierJSON | u64 ffInsts | i64 hostNS | u32 pointCount |
//	page dict (u32 count, raw 4 KiB pages) |
//	per point: pc, regs, ffInsts, TAGE, BTB, RAS,
//	           u32 variantCount, per variant (sorted by name):
//	               string name | hierarchy | prefetcher |
//	           memory page table (page numbers -> dict indices)
//
// Pages are interned by pointer identity across every memory in the set
// (emu.PageDict): capture snapshots copy-on-write, so consecutive points
// share almost all pages and the dict stores each distinct page once.
// Decoding rebuilds the sharing, so a decoded set costs about as much
// memory as the captured one — not pointCount times more.

const (
	codecMagic   = "CRSPCKP1"
	codecVersion = 1
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
		pt.Mem.EncodeState(&pw, dict)
		if i == 0 {
			growForPoints(&pw, len(set.Points))
		}
	}

	// Pass 2: assemble the payload with the dict ahead of the page
	// tables that reference it.
	w := openContainer(codecMagic, codecVersion, key)
	hierJSON, err := json.Marshal(set.Hier)
	if err != nil { // unreachable: HierConfig is plain data
		panic(fmt.Sprintf("checkpoint: marshal HierConfig: %v", err))
	}
	w.String(string(hierJSON))
	w.U64(set.FFInsts)
	w.I64(set.HostNS)
	w.U32(uint32(len(set.Points)))
	return w.seal(dict, &pw)
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
// file and recaptures.
func DecodeSet(data []byte, expectKey string) (*Set, error) {
	r := codec.NewReader(data)
	if magic := string(r.Raw(len(codecMagic))); magic != codecMagic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", magic)
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

	p := codec.NewReader(payload)
	set := &Set{}
	if err := json.Unmarshal([]byte(p.String()), &set.Hier); err != nil {
		return nil, fmt.Errorf("checkpoint: decode hierarchy config: %w", err)
	}
	set.FFInsts = p.U64()
	set.HostNS = p.I64()
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
		pt := &Point{PC: p.Int()}
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
		for j := 0; j < nv; j++ {
			name := p.String()
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
	if err := p.Err(); err != nil {
		return nil, err
	}
	if p.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after %d points", p.Remaining(), n)
	}
	return set, nil
}
