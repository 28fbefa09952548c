// Package prefetch implements the hardware data prefetchers of the
// evaluation platform, all at the L1D. Table 1 enables BOPStream: BOP
// (best-offset prefetching, Michaud 2016) plus a stream prefetcher; the
// paper also reports stride and GHB baselines. All implement the structural
// interface expected by the cache package: OnAccess(pc, addr, hit) ->
// prefetch addresses. To keep the per-access hot path allocation-free,
// every prefetcher reuses an internal scratch buffer for its suggestions:
// the returned slice is valid only until the next OnAccess call on the
// same prefetcher, and callers must consume (or copy) it before then.
//
// CRISP's premise is that these prefetchers cover regular (stride and
// periodic) patterns but cannot cover irregular ones like pointer chasing;
// the workloads exercise both classes.
//
// A prefetcher is its kind: each kind has one shape, Table 1's, which New
// builds, and nothing about it is set afterwards.
package prefetch

import "fmt"

const lineSize = 64

// The kinds of prefetcher, by the names configurations, results and
// checkpoint variants use.
const (
	KindBOPStream = "bop+stream" // Table 1: BOP and Stream
	KindStride    = "stride"
	KindGHB       = "ghb"
	KindNone      = "none"
)

// Table 1's sizes: stride table entries, stream regions tracked and GHB
// buffer entries.
const strideEntries, streamRegions, ghbEntries = 256, 64, 512

// Prefetcher is the common interface of every prefetcher in this package,
// structurally identical to the one the cache package expects.
type Prefetcher interface {
	OnAccess(pc, addr uint64, hit bool) []uint64
}

// New returns a fresh prefetcher of the named kind, nil for KindNone.
func New(kind string) (Prefetcher, error) {
	switch kind {
	case KindBOPStream:
		return NewBOPStream(), nil
	case KindStride:
		return NewStride(), nil
	case KindGHB:
		return NewGHB(), nil
	case KindNone:
		return nil, nil
	}
	return nil, fmt.Errorf("prefetch: unknown prefetcher kind %q", kind)
}

// Clone deep-copies a prefetcher's training state so the copy can be
// attached to a different cache without sharing mutable state. Sampled
// simulation warms one prefetcher per kind during checkpoint capture and
// hands each detailed window a clone.
func Clone(p Prefetcher) Prefetcher {
	switch p := p.(type) {
	case *Stride:
		return &Stride{table: p.table.clone()}
	case *Stream:
		return &Stream{regions: p.regions.clone()}
	case *BOP:
		c := *p
		return &c
	case *GHB:
		return &GHB{buf: append([]ghbEntry(nil), p.buf...), head: p.head, index: p.index.clone()}
	case *BOPStream:
		return &BOPStream{BOP: Clone(p.BOP).(*BOP), Stream: Clone(p.Stream).(*Stream)}
	default:
		panic("prefetch: Clone: unknown prefetcher type")
	}
}

// Stride is a PC-indexed stride prefetcher with confidence counters.
type Stride struct {
	table table[strideEntry]

	out [1]uint64
}

// strideDistance is how many strides ahead Stride prefetches.
const strideDistance = 4

type strideEntry struct {
	lastAddr uint64
	stride   int64
	conf     int8
}

// NewStride returns a stride prefetcher of strideEntries PCs.
func NewStride() *Stride { return &Stride{table: table[strideEntry]{cap: strideEntries}} }

// OnAccess implements the prefetcher interface.
func (p *Stride) OnAccess(pc, addr uint64, _ bool) []uint64 {
	e := p.table.get(pc)
	if e == nil {
		p.table.put(pc, strideEntry{lastAddr: addr})
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf--
		if e.conf <= 0 {
			e.stride = stride
			e.conf = 1
		}
	}
	e.lastAddr = addr
	if e.conf >= 2 && e.stride != 0 {
		p.out[0] = uint64(int64(addr) + e.stride*strideDistance)
		return p.out[:]
	}
	return nil
}

// Stream detects ascending or descending line streams within aligned 4 KiB
// regions and prefetches streamDegree lines ahead of the stream.
type Stream struct {
	regions table[streamEntry]

	out []uint64
}

const streamDegree = 2

type streamEntry struct {
	lastLine int64
	dir      int64 // +1, -1, or 0 (untrained)
	count    int8
}

// NewStream returns a stream prefetcher tracking up to streamRegions
// regions.
func NewStream() *Stream { return &Stream{regions: table[streamEntry]{cap: streamRegions}} }

// OnAccess implements the prefetcher interface.
func (p *Stream) OnAccess(_, addr uint64, _ bool) []uint64 {
	region := addr >> 12
	line := int64(addr / lineSize)
	e := p.regions.get(region)
	if e == nil {
		p.regions.put(region, streamEntry{lastLine: line})
		return nil
	}
	delta := line - e.lastLine
	e.lastLine = line
	var dir int64
	switch {
	case delta > 0 && delta <= 4:
		dir = 1
	case delta < 0 && delta >= -4:
		dir = -1
	default:
		e.count = 0
		e.dir = 0
		return nil
	}
	if dir == e.dir {
		if e.count < 4 {
			e.count++
		}
	} else {
		e.dir = dir
		e.count = 1
	}
	if e.count < 2 {
		return nil
	}
	p.out = p.out[:0]
	for i := 1; i <= streamDegree; i++ {
		next := line + dir*int64(i)
		if next >= 0 {
			p.out = append(p.out, uint64(next)*lineSize)
		}
	}
	return p.out
}

// BOPStream is Table 1's "BOP and Stream": both parts train on every
// access, and their suggestions are concatenated, BOP's first.
type BOPStream struct {
	BOP    *BOP
	Stream *Stream

	out []uint64
}

// NewBOPStream returns Table 1's pair.
func NewBOPStream() *BOPStream { return &BOPStream{BOP: NewBOP(), Stream: NewStream()} }

// OnAccess implements the prefetcher interface.
func (p *BOPStream) OnAccess(pc, addr uint64, hit bool) []uint64 {
	p.out = append(p.out[:0], p.BOP.OnAccess(pc, addr, hit)...)
	p.out = append(p.out, p.Stream.OnAccess(pc, addr, hit)...)
	return p.out
}
