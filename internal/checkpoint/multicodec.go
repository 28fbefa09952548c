package checkpoint

import (
	"fmt"
	"math"

	"crisp/internal/branch"
	"crisp/internal/cache"
	"crisp/internal/codec"
	"crisp/internal/emu"
	"crisp/internal/prefetch"
)

// Binary container for a MultiSet on disk, following the single-core
// container's discipline (magic, codec version, content key, CRC and
// length over the payload) under its own magic so a multi-set file can
// never decode as a single-core set or vice versa.
//
// Payload (version 2):
//
//	string hierJSON | u32 cores | per core: string pfKind |
//	per core: f64 pace | per core: u64 windowInsts |
//	u64 ffInsts | per core: u64 ffPerCore | i64 hostNS |
//	per core: u64 imagePages, u32 imageSum |
//	u32 pointCount | page dict (shared across cores AND points) |
//	per point:
//	    per core: pc, regs, ffInsts, TAGE, BTB, RAS, prefetcher |
//	    shared hierarchy (per-view L1I/L1D, shared LLC once) |
//	    per core: memory page table
//
// Each core's memories are a delta over that core's workload image
// (MultiSet.Images[i]), exactly as in the single-core container: a page
// table lists the pages that are not pointer-identical to the image's,
// which is sound because frozen copy-on-write pages never change; the head
// carries one emu.ImageID per core; DecodeMultiSet returns an unattached
// set and MultiSet.Attach checks every image's page count and checksum
// before it lays any page. Listed pages are interned set-wide: a page one
// core wrote once is shared by all its later points.

const (
	multiCodecMagic   = "CRSPMCK1"
	multiCodecVersion = 2
)

// maxMultiCores bounds the decoded core count (sim.MaxCores is 8; the
// codec's bound only has to stop corrupt headers driving allocations).
const maxMultiCores = 64

// EncodeMultiSet serializes the set under the given content key.
func EncodeMultiSet(set *MultiSet, key string) []byte {
	// Pass 1: encode point state into a scratch writer, interning pages.
	var pw codec.Writer
	dict := emu.NewPageDict()
	// A captured or attached set has its images, a decoded one their IDs,
	// one built by hand neither.
	images, ids := set.Images, set.imageIDs
	if images == nil {
		images = make([]*emu.Memory, set.Cores)
	}
	if ids == nil {
		ids = make([]emu.ImageID, set.Cores)
	}
	for i, pt := range set.Points {
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
		for c, cs := range pt.Cores {
			cs.Mem.EncodeState(&pw, dict, images[c])
		}
		if i == 0 {
			growForPoints(&pw, len(set.Points))
		}
	}

	// Pass 2: assemble the payload with the dict ahead of the page
	// tables that reference it.
	w := openContainer(multiCodecMagic, multiCodecVersion, key)
	w.String(hierJSON(set.Hier))
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
	for i := range images {
		encodeImageID(&w.Writer, images[i], ids[i])
	}
	w.U32(uint32(len(set.Points)))
	return w.seal(dict, &pw)
}

// DecodeMultiSet deserializes a set encoded by EncodeMultiSet, verifying
// the magic, codec version, CRC, and — when expectKey is non-empty — the
// content key. Any mismatch or truncation is an error; the caller
// deletes the file and recaptures. Like DecodeSet's, the set comes back
// unattached.
func DecodeMultiSet(data []byte, expectKey string) (*MultiSet, error) {
	p, err := openPayload(data, multiCodecMagic, multiCodecVersion, expectKey)
	if err != nil {
		return nil, err
	}
	set := &MultiSet{}
	if set.Hier, err = decodeHierJSON(p); err != nil {
		return nil, err
	}
	set.Cores = int(p.U32())
	if err := p.Err(); err != nil {
		return nil, err
	}
	if set.Cores < 1 || set.Cores > maxMultiCores {
		return nil, fmt.Errorf("checkpoint: core count %d out of range", set.Cores)
	}
	set.PFKinds = make([]string, set.Cores)
	for i := range set.PFKinds {
		set.PFKinds[i] = p.String()
	}
	set.Pace = make([]float64, set.Cores)
	for i := range set.Pace {
		set.Pace[i] = math.Float64frombits(p.U64())
	}
	set.WindowInsts = make([]uint64, set.Cores)
	for i := range set.WindowInsts {
		set.WindowInsts[i] = p.U64()
	}
	set.FFInsts = p.U64()
	set.FFPerCore = make([]uint64, set.Cores)
	for i := range set.FFPerCore {
		set.FFPerCore[i] = p.U64()
	}
	set.HostNS = p.I64()
	set.imageIDs = make([]emu.ImageID, set.Cores)
	for i := range set.imageIDs {
		set.imageIDs[i] = emu.ImageID{Pages: p.U64(), Sum: p.U32()}
	}
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
		pt := &MultiPoint{Cores: make([]*CoreState, set.Cores), unattached: true}
		for c := range pt.Cores {
			cs := &CoreState{PC: p.Int()}
			for j := range cs.Regs {
				cs.Regs[j] = p.I64()
			}
			cs.FFInsts = p.U64()
			if cs.BP, err = branch.DecodeTAGE(p); err != nil {
				return nil, fmt.Errorf("checkpoint: point %d core %d: %w", i, c, err)
			}
			if cs.BTB, err = branch.DecodeBTB(p); err != nil {
				return nil, fmt.Errorf("checkpoint: point %d core %d: %w", i, c, err)
			}
			if cs.RAS, err = branch.DecodeRAS(p); err != nil {
				return nil, fmt.Errorf("checkpoint: point %d core %d: %w", i, c, err)
			}
			if cs.PF, err = prefetch.Decode(p); err != nil {
				return nil, fmt.Errorf("checkpoint: point %d core %d: %w", i, c, err)
			}
			pt.Cores[c] = cs
		}
		if pt.Hier, err = cache.DecodeSharedHierarchy(p, set.Hier, set.Cores); err != nil {
			return nil, fmt.Errorf("checkpoint: point %d: %w", i, err)
		}
		for c := range pt.Cores {
			if pt.Cores[c].Mem, err = emu.DecodeMemory(p, dict); err != nil {
				return nil, fmt.Errorf("checkpoint: point %d core %d: %w", i, c, err)
			}
		}
		set.Points = append(set.Points, pt)
	}
	if err := closePayload(p, dict, n); err != nil {
		return nil, err
	}
	return set, nil
}
