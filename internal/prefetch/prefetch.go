// Package prefetch implements the hardware data prefetchers of the
// evaluation platform. Table 1 enables BOP (best-offset prefetching,
// Michaud 2016) plus a stream prefetcher; the paper also reports trying
// stride and GHB prefetchers as baselines. All implement the structural
// interface expected by the cache package: OnAccess(pc, addr, hit) ->
// prefetch addresses. To keep the per-access hot path allocation-free,
// every prefetcher reuses an internal scratch buffer for its suggestions:
// the returned slice is valid only until the next OnAccess call on the
// same prefetcher, and callers must consume (or copy) it before then.
//
// CRISP's premise is that these prefetchers cover regular (stride and
// periodic) patterns but cannot cover irregular ones like pointer chasing;
// the workloads exercise both classes.
package prefetch

const lineSize = 64

// Prefetcher is the common interface of every prefetcher in this package,
// structurally identical to the one the cache package expects.
type Prefetcher interface {
	OnAccess(pc, addr uint64, hit bool) []uint64
}

// Clone deep-copies a prefetcher's training state so the copy can be
// attached to a different cache without sharing mutable state. Sampled
// simulation warms one prefetcher per kind during checkpoint capture and
// hands each detailed window a clone.
func Clone(p Prefetcher) Prefetcher {
	switch p := p.(type) {
	case *NextLine:
		return &NextLine{Degree: p.Degree}
	case *Stride:
		return &Stride{table: p.table.clone(), Distance: p.Distance}
	case *Stream:
		return &Stream{regions: p.regions.clone(), Degree: p.Degree}
	case *BOP:
		return p.clone()
	case *GHB:
		return &GHB{buf: append([]ghbEntry(nil), p.buf...), head: p.head, size: p.size, index: p.index.clone(), Depth: p.Depth}
	case *Composite:
		parts := make([]Prefetcher, len(p.Parts))
		for i, part := range p.Parts {
			parts[i] = Clone(part)
		}
		return &Composite{Parts: parts}
	default:
		panic("prefetch: Clone: unknown prefetcher type")
	}
}

// NextLine prefetches the next sequential line on every access.
type NextLine struct {
	Degree int

	out []uint64
}

// OnAccess implements the prefetcher interface.
func (p *NextLine) OnAccess(_, addr uint64, _ bool) []uint64 {
	deg := p.Degree
	if deg <= 0 {
		deg = 1
	}
	p.out = p.out[:0]
	line := addr &^ (lineSize - 1)
	for i := 0; i < deg; i++ {
		p.out = append(p.out, line+uint64(i+1)*lineSize)
	}
	return p.out
}

// Stride is a PC-indexed stride prefetcher with confidence counters.
type Stride struct {
	table table[strideEntry]
	// Distance is how many strides ahead to prefetch (default 4).
	Distance int

	out [1]uint64
}

type strideEntry struct {
	lastAddr uint64
	stride   int64
	conf     int8
}

// NewStride returns a stride prefetcher with the given table capacity.
func NewStride(capacity int) *Stride {
	return &Stride{table: table[strideEntry]{cap: capacity}, Distance: 4}
}

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
		p.out[0] = uint64(int64(addr) + e.stride*int64(p.Distance))
		return p.out[:]
	}
	return nil
}

// Stream detects ascending or descending line streams within aligned 4 KiB
// regions and prefetches ahead of the stream with a configurable degree.
type Stream struct {
	regions table[streamEntry]
	Degree  int

	out []uint64
}

type streamEntry struct {
	lastLine int64
	dir      int64 // +1, -1, or 0 (untrained)
	count    int8
}

// NewStream returns a stream prefetcher tracking up to capacity regions.
func NewStream(capacity int) *Stream {
	return &Stream{regions: table[streamEntry]{cap: capacity}, Degree: 2}
}

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
	for i := 1; i <= p.Degree; i++ {
		next := line + dir*int64(i)
		if next >= 0 {
			p.out = append(p.out, uint64(next)*lineSize)
		}
	}
	return p.out
}

// Composite chains prefetchers, concatenating their suggestions (Table 1
// enables "BOP and Stream").
type Composite struct {
	Parts []Prefetcher

	out []uint64
}

// OnAccess implements the prefetcher interface.
func (c *Composite) OnAccess(pc, addr uint64, hit bool) []uint64 {
	c.out = c.out[:0]
	for _, p := range c.Parts {
		c.out = append(c.out, p.OnAccess(pc, addr, hit)...)
	}
	return c.out
}
