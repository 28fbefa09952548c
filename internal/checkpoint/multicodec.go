package checkpoint

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
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
// Payload:
//
//	string hierJSON | u32 cores | per core: string pfKind |
//	per core: f64 pace | per core: u64 windowInsts |
//	u64 ffInsts | per core: u64 ffPerCore | i64 hostNS |
//	u32 pointCount | page dict (shared across cores AND points) |
//	per point:
//	    per core: pc, regs, ffInsts, TAGE, BTB, RAS, prefetcher |
//	    shared hierarchy (per-view L1I/L1D, shared LLC once) |
//	    per core: memory page table
//
// Pages are interned across every core's every snapshot: consecutive
// points of one core share almost all pages copy-on-write, so the dict
// stores each distinct page once set-wide.

const (
	multiCodecMagic   = "CRSPMCK1"
	multiCodecVersion = 1
)

// maxMultiCores bounds the decoded core count (sim.MaxCores is 8; the
// codec's bound only has to stop corrupt headers driving allocations).
const maxMultiCores = 64

// EncodeMultiSet serializes the set under the given content key.
func EncodeMultiSet(set *MultiSet, key string) []byte {
	// Pass 1: encode point state into a scratch writer, interning pages.
	var pw codec.Writer
	dict := emu.NewPageDict()
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
		for _, cs := range pt.Cores {
			cs.Mem.EncodeState(&pw, dict)
		}
		if i == 0 {
			growForPoints(&pw, len(set.Points))
		}
	}

	// Pass 2: assemble the payload with the dict ahead of the page
	// tables that reference it.
	w := openContainer(multiCodecMagic, multiCodecVersion, key)
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
	return w.seal(dict, &pw)
}

// DecodeMultiSet deserializes a set encoded by EncodeMultiSet, verifying
// the magic, codec version, CRC, and — when expectKey is non-empty — the
// content key. Any mismatch or truncation is an error; the caller
// deletes the file and recaptures.
func DecodeMultiSet(data []byte, expectKey string) (*MultiSet, error) {
	r := codec.NewReader(data)
	if magic := string(r.Raw(len(multiCodecMagic))); magic != multiCodecMagic {
		return nil, fmt.Errorf("checkpoint: bad multi-set magic %q", magic)
	}
	if v := r.U32(); v != multiCodecVersion {
		return nil, fmt.Errorf("checkpoint: multi codec version %d, want %d", v, multiCodecVersion)
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
	set := &MultiSet{}
	if err := json.Unmarshal([]byte(p.String()), &set.Hier); err != nil {
		return nil, fmt.Errorf("checkpoint: decode hierarchy config: %w", err)
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
		pt := &MultiPoint{Cores: make([]*CoreState, set.Cores)}
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
	if err := p.Err(); err != nil {
		return nil, err
	}
	if p.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after %d points", p.Remaining(), n)
	}
	return set, nil
}
