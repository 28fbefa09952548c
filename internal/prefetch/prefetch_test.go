package prefetch

import (
	"math/rand"
	"slices"
	"testing"
)

func TestStrideLearnsConstantStride(t *testing.T) {
	p := NewStride()
	var got []uint64
	for i := 0; i < 10; i++ {
		got = p.OnAccess(0x40, uint64(0x1000+i*256), false)
	}
	want := uint64(0x1000 + 9*256 + 4*256)
	if len(got) != 1 || got[0] != want {
		t.Errorf("stride prediction = %#x, want %#x", got, want)
	}
}

func TestStrideIgnoresRandom(t *testing.T) {
	p := NewStride()
	r := rand.New(rand.NewSource(1))
	fired := 0
	for i := 0; i < 200; i++ {
		if len(p.OnAccess(0x40, uint64(r.Intn(1<<30)), false)) > 0 {
			fired++
		}
	}
	if fired > 20 {
		t.Errorf("stride fired %d times on random accesses", fired)
	}
}

func TestStridePerPC(t *testing.T) {
	p := NewStride()
	// Interleave two PCs with different strides; both must train.
	// OnAccess reuses its scratch buffer, so snapshot each prediction
	// before the next call.
	var gotA, gotB []uint64
	for i := 0; i < 10; i++ {
		gotA = append(gotA[:0], p.OnAccess(0x10, uint64(0x10000+i*64), false)...)
		gotB = append(gotB[:0], p.OnAccess(0x20, uint64(0x80000+i*4096), false)...)
	}
	if len(gotA) != 1 || gotA[0] != uint64(0x10000+9*64+4*64) {
		t.Errorf("pc A prediction = %#x", gotA)
	}
	if len(gotB) != 1 || gotB[0] != uint64(0x80000+9*4096+4*4096) {
		t.Errorf("pc B prediction = %#x", gotB)
	}
}

func TestStreamDetectsAscending(t *testing.T) {
	p := NewStream()
	var got []uint64
	for i := 0; i < 6; i++ {
		got = p.OnAccess(0, uint64(0x3000+i*64), false)
	}
	if len(got) == 0 {
		t.Fatalf("stream did not fire on ascending accesses")
	}
	if got[0] != uint64(0x3000+5*64+64) {
		t.Errorf("stream prediction = %#x", got)
	}
}

func TestStreamDetectsDescending(t *testing.T) {
	p := NewStream()
	var got []uint64
	for i := 0; i < 6; i++ {
		got = p.OnAccess(0, uint64(0x30000-i*64), false)
	}
	if len(got) == 0 {
		t.Fatalf("stream did not fire on descending accesses")
	}
	if got[0] != uint64(0x30000-5*64-64) {
		t.Errorf("stream prediction = %#x", got)
	}
}

func TestStreamResetsOnJump(t *testing.T) {
	p := NewStream()
	for i := 0; i < 6; i++ {
		p.OnAccess(0, uint64(0x3000+i*64), false)
	}
	if got := p.OnAccess(0, 0x3c00, false); len(got) != 0 {
		t.Errorf("stream fired immediately after a 3KB jump: %#x", got)
	}
}

func TestBOPLearnsOffset(t *testing.T) {
	b := NewBOP()
	// Access pattern with constant offset 4 lines; all misses.
	addr := uint64(0x100000)
	for i := 0; i < 4000; i++ {
		b.OnAccess(0, addr, false)
		addr += 4 * 64
	}
	if got := b.ActiveOffset(); got != 4 {
		t.Errorf("BOP active offset = %d, want 4", got)
	}
	out := b.OnAccess(0, addr, false)
	if len(out) != 1 || out[0] != (addr/64+4)*64 {
		t.Errorf("BOP prefetch = %#x", out)
	}
}

func TestBOPDisablesOnRandom(t *testing.T) {
	b := NewBOP()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		b.OnAccess(0, uint64(r.Int63n(1<<40))&^63, false)
	}
	if got := b.ActiveOffset(); got != 0 {
		t.Errorf("BOP offset on random stream = %d, want 0 (off)", got)
	}
}

func TestGHBReplaysDeltaPattern(t *testing.T) {
	g := NewGHB()
	// Repeating delta pattern +1, +2, +5 lines (period 3), all misses.
	deltas := []int64{1, 2, 5}
	line := int64(1000)
	var got []uint64
	for i := 0; i < 30; i++ {
		got = g.OnAccess(0x40, uint64(line)*64, false)
		line += deltas[i%3]
	}
	if len(got) == 0 {
		t.Fatalf("GHB never predicted on periodic deltas")
	}
}

func TestGHBQuietOnHits(t *testing.T) {
	g := NewGHB()
	if out := g.OnAccess(0x40, 0x1000, true); out != nil {
		t.Errorf("GHB predicted on a hit: %v", out)
	}
}

// TestBOPStream: the pair trains both parts on every access and returns
// BOP's suggestions, then Stream's, exactly what the two alone return.
func TestBOPStream(t *testing.T) {
	p, bop, stream := NewBOPStream(), NewBOP(), NewStream()
	both := 0
	for i := 0; i < 4000; i++ {
		addr, hit := uint64(0x100000+i*72), i%3 == 0
		b := append([]uint64(nil), bop.OnAccess(0, addr, hit)...)
		s := stream.OnAccess(0, addr, hit)
		if got, want := p.OnAccess(0, addr, hit), append(b, s...); !slices.Equal(got, want) {
			t.Fatalf("access %d: pair suggested %#x, BOP then Stream %#x", i, got, want)
		}
		if len(b) > 0 && len(s) > 0 {
			both++
		}
	}
	if both == 0 {
		t.Fatal("BOP and Stream never both suggested: the order is untested")
	}
}
