package history

import (
	"testing"
	"testing/quick"

	"llbpx/internal/hashutil"
)

func TestGlobalPushAndBit(t *testing.T) {
	g := NewGlobal(64)
	seq := []uint8{1, 0, 1, 1, 0, 0, 1}
	for _, b := range seq {
		g.Push(b)
	}
	for age := 0; age < len(seq); age++ {
		want := seq[len(seq)-1-age]
		if got := g.Bit(age); got != want {
			t.Fatalf("Bit(%d) = %d, want %d", age, got, want)
		}
	}
}

func TestGlobalCapacityRounding(t *testing.T) {
	g := NewGlobal(3000)
	if g.Capacity() < 3001 {
		t.Fatalf("capacity %d too small for requested 3000", g.Capacity())
	}
	if c := g.Capacity(); c&(c-1) != 0 {
		t.Fatalf("capacity %d is not a power of two", c)
	}
}

func TestGlobalWraparound(t *testing.T) {
	g := NewGlobal(8)
	// Push more bits than capacity; the most recent must still be right.
	for i := 0; i < 100; i++ {
		g.Push(uint8(i % 2))
	}
	if g.Bit(0) != 1 || g.Bit(1) != 0 {
		t.Fatal("wraparound lost the most recent bits")
	}
}

// naiveFold recomputes the folded compression from scratch: XOR of the
// window bits placed at rotating positions, mirroring the incremental
// update's fixed point.
func foldedMatchesNaive(bits []uint8, origLen int, compLen uint) bool {
	g := NewGlobal(origLen + 8)
	f := NewFolded(origLen, compLen)
	for _, b := range bits {
		g.Push(b)
		f.Update(g)
	}
	// Reconstruct: replay the same pushes through a fresh Folded; equal by
	// construction, so instead verify the invariant that the comp only
	// depends on the last origLen bits: replaying only those bits (padded
	// with the same prefix zeros the register started from) must agree
	// once the window is full.
	if len(bits) < origLen+int(compLen)+4 {
		return true // not enough history for the invariant to bind
	}
	g2 := NewGlobal(origLen + 8)
	f2 := NewFolded(origLen, compLen)
	// Replay a prefix-free reconstruction: push enough zeros to flush the
	// register (a zero window folds to zero), then the last origLen bits.
	for i := 0; i < origLen+int(compLen)+1; i++ {
		g2.Push(0)
		f2.Update(g2)
	}
	if f2.Value() != 0 {
		return false // flushing with zeros must zero the compression
	}
	start := len(bits) - origLen
	for _, b := range bits[start:] {
		g2.Push(b)
		f2.Update(g2)
	}
	return f.Value() == f2.Value()
}

func TestFoldedDependsOnlyOnWindow(t *testing.T) {
	prop := func(raw []byte, lenSel, compSel uint8) bool {
		origLen := 5 + int(lenSel%60)
		compLen := uint(4 + compSel%12)
		bits := make([]uint8, len(raw)+origLen+40)
		for i, b := range raw {
			bits[i] = b & 1
		}
		for i := len(raw); i < len(bits); i++ {
			bits[i] = uint8(i*7%3) & 1
		}
		return foldedMatchesNaive(bits, origLen, compLen)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldedWidth(t *testing.T) {
	g := NewGlobal(128)
	f := NewFolded(100, 11)
	r := hashutil.NewRand(1)
	for i := 0; i < 500; i++ {
		g.Push(uint8(r.Intn(2)))
		f.Update(g)
		if f.Value() >= 1<<11 {
			t.Fatalf("folded value %d exceeds 11 bits", f.Value())
		}
	}
}

func TestFoldedDistinguishesHistories(t *testing.T) {
	// Two different windows should (almost always) compress differently.
	run := func(seed uint64) uint64 {
		g := NewGlobal(64)
		f := NewFolded(40, 13)
		r := hashutil.NewRand(seed)
		for i := 0; i < 200; i++ {
			g.Push(uint8(r.Intn(2)))
			f.Update(g)
		}
		return f.Value()
	}
	if run(1) == run(2) {
		t.Fatal("distinct random histories folded to the same value (suspicious)")
	}
}

func TestFoldedPanicsOnBadWidth(t *testing.T) {
	for _, w := range []uint{0, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewFolded(10, %d) must panic", w)
				}
			}()
			NewFolded(10, w)
		}()
	}
}

func TestFoldedReset(t *testing.T) {
	g := NewGlobal(32)
	f := NewFolded(16, 8)
	for i := 0; i < 20; i++ {
		g.Push(1)
		f.Update(g)
	}
	f.Reset()
	if f.Value() != 0 {
		t.Fatal("Reset must clear the compression")
	}
}

func TestGlobalHashWindowSensitivity(t *testing.T) {
	g := NewGlobal(64)
	for i := 0; i < 40; i++ {
		g.Push(uint8(i % 2))
	}
	before := g.Hash(16, 20)
	g.Push(1)
	after := g.Hash(16, 20)
	if before == after {
		t.Fatal("Hash should change when a new bit enters the window")
	}
	if h := g.Hash(16, 20); h >= 1<<20 {
		t.Fatalf("Hash width violated: %d", h)
	}
}

func TestGlobalHashDeterministic(t *testing.T) {
	mk := func() uint64 {
		g := NewGlobal(64)
		for i := 0; i < 50; i++ {
			g.Push(uint8((i * 3) % 2))
		}
		return g.Hash(32, 24)
	}
	if mk() != mk() {
		t.Fatal("Hash must be deterministic")
	}
}

func TestPath(t *testing.T) {
	p := NewPath(8)
	for i := 0; i < 100; i++ {
		p.Push(uint64(i) << 2)
		if p.Value() >= 1<<8 {
			t.Fatalf("path value %d exceeds width", p.Value())
		}
	}
}

func TestPathPanicsOnBadWidth(t *testing.T) {
	for _, w := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewPath(%d) must panic", w)
				}
			}()
			NewPath(w)
		}()
	}
}

func TestFoldedPanicsOnBadLength(t *testing.T) {
	for _, l := range []int{-1, 1 << 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewFolded(%d, 8) must panic", l)
				}
			}()
			NewFolded(l, 8)
		}()
	}
}
