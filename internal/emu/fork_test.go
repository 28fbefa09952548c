package emu

import (
	"bytes"
	"encoding/binary"
	"testing"

	"crisp/internal/codec"
)

// TestSnapshotCleanIsConstantAllocs pins the O(1) fork: snapshotting a
// clean memory allocates the fork's header and nothing per page, so
// per-restore and per-Build cost cannot creep back to O(pages).
func TestSnapshotCleanIsConstantAllocs(t *testing.T) {
	for _, pages := range []uint64{1, 4096} {
		m := NewMemory()
		for pn := uint64(0); pn < pages; pn++ {
			m.WriteWord(pn*pageSize, int64(pn))
		}
		m.Snapshot() // freeze: m is clean from here on
		if n := testing.AllocsPerRun(100, func() { m.Snapshot() }); n > 1 {
			t.Errorf("Snapshot of a clean %d-page memory: %v allocs, want 1", pages, n)
		}
	}
}

// forkSpan is the address range a fuzzed op can reach: 16-bit addresses
// plus the longest WriteWords run.
const forkSpan = 1<<16 + 255*3*8

// forkNode is one memory of the fuzzed fork tree with its flat byte-level
// reference, and the snapshot it was forked from (nil for the root).
type forkNode struct {
	m     *Memory
	ref   []byte
	image *Memory
}

func (n *forkNode) word(addr uint64) int64 {
	return int64(binary.LittleEndian.Uint64(n.ref[addr:]))
}

func (n *forkNode) setWord(addr uint64, v int64) {
	binary.LittleEndian.PutUint64(n.ref[addr:], uint64(v))
}

// recode round-trips m through the checkpoint page codec as a delta over
// image, a memory m descends from (nil: m whole).
func recode(t *testing.T, m, image *Memory) *Memory {
	var pw, w codec.Writer
	dict := NewPageDict()
	m.EncodeState(&pw, dict, image)
	dict.EncodePages(&w)
	w.Raw(pw.Bytes())
	r := codec.NewReader(w.Bytes())
	dec, err := DecodePageDict(r)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMemory(r, dec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 || dec.Unreferenced() != 0 {
		t.Fatalf("%d trailing bytes, %d unreferenced dict pages", r.Remaining(), dec.Unreferenced())
	}
	if image != nil {
		out = Overlay(image, out)
	}
	return out
}

// Fuzz ops are 5 bytes: op, node, address high, address low, value. The
// 16-bit address space is 16 pages, so forks share pages constantly and
// unaligned addresses straddle page boundaries.
const (
	opWriteWord = iota
	opWriteWords
	opReadWord
	opReadWords
	opSnapshot
	opRecode // fork the node through EncodeState/DecodeMemory/Overlay, over the snapshot it was forked from
	numForkOps
)

// FuzzMemoryFork drives random reads, writes and forks over a tree of
// memories and checks every one against a flat reference: no write may
// leak between a memory and any of its forks, in either direction,
// through shared pages or stale cached translations.
func FuzzMemoryFork(f *testing.F) {
	// A word straddling a page boundary, both pages shared with the parent.
	f.Add([]byte{
		opWriteWord, 0, 0x0F, 0xF8, 1, opWriteWord, 0, 0x10, 0x00, 2, opSnapshot, 0, 0, 0, 0,
		opWriteWord, 1, 0x0F, 0xFC, 3, opReadWord, 0, 0x0F, 0xFC, 0, opReadWord, 1, 0x0F, 0xFC, 0,
	})
	// Write to the parent after the fork, through its warm write register.
	f.Add([]byte{
		opWriteWord, 0, 0x20, 0x08, 4, opSnapshot, 0, 0, 0, 0,
		opWriteWord, 0, 0x20, 0x08, 5, opReadWord, 1, 0x20, 0x08, 0,
	})
	// Fork of a fork; the middle one is written after both exist.
	f.Add([]byte{
		opWriteWords, 0, 0x2F, 0x00, 90, opSnapshot, 0, 0, 0, 0, opSnapshot, 1, 0, 0, 0,
		opWriteWord, 2, 0x30, 0x10, 6, opWriteWord, 1, 0x30, 0x10, 7, opReadWords, 2, 0x2F, 0xF0, 40,
	})
	// Fork of a DecodeMemory result.
	f.Add([]byte{
		opWriteWord, 0, 0x40, 0x00, 8, opRecode, 0, 0, 0, 0, opSnapshot, 1, 0, 0, 0,
		opWriteWord, 2, 0x40, 0x00, 9, opReadWord, 1, 0x40, 0x00, 0, opWriteWord, 1, 0x40, 0x04, 10,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		nodes := []*forkNode{{m: NewMemory(), ref: make([]byte, forkSpan)}}
		for ; len(ops) >= 5; ops = ops[5:] {
			n := nodes[int(ops[1])%len(nodes)]
			addr := uint64(ops[2])<<8 | uint64(ops[3])
			val := int64(ops[4])*0x0101_0101_0101_0101 + int64(len(ops))
			words := make([]int64, int(ops[4])*3) // up to 6 KiB: spans pages
			switch ops[0] % numForkOps {
			case opWriteWord:
				n.m.WriteWord(addr, val)
				n.setWord(addr, val)
			case opWriteWords:
				for i := range words {
					words[i] = val + int64(i)
					n.setWord(addr+uint64(i)*8, words[i])
				}
				n.m.WriteWords(addr, words)
			case opReadWord:
				if got, want := n.m.ReadWord(addr), n.word(addr); got != want {
					t.Fatalf("ReadWord(%#x) = %#x, want %#x", addr, got, want)
				}
			case opReadWords:
				n.m.ReadWords(addr, words)
				for i, got := range words {
					if want := n.word(addr + uint64(i)*8); got != want {
						t.Fatalf("ReadWords(%#x)[%d] = %#x, want %#x", addr, i, got, want)
					}
				}
			case opSnapshot, opRecode:
				if len(nodes) == 8 {
					continue
				}
				m := n.m.Snapshot()
				image := m.Snapshot() // frozen: nothing writes it
				if ops[0]%numForkOps == opRecode {
					m, image = recode(t, m, n.image), n.image
				}
				nodes = append(nodes, &forkNode{m: m, ref: bytes.Clone(n.ref), image: image})
			}
		}
		// Every memory still reads as its own reference, everywhere.
		all := make([]int64, forkSpan/8)
		for i, n := range nodes {
			n.m.ReadWords(0, all)
			for j, got := range all {
				if want := n.word(uint64(j) * 8); got != want {
					t.Fatalf("node %d word %#x = %#x, want %#x", i, j*8, got, want)
				}
			}
		}
	})
}
