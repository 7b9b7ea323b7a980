// Package history implements the speculative global-history machinery
// shared by TAGE-style predictors: a long global direction history, the
// folded (cyclic-shift-register) compressions of it used to form table
// indices and tags in O(1) per branch, and a short path history of branch
// address bits.
package history

import "math"

// Global is a circular buffer of direction bits. It comfortably holds the
// 3000-bit histories modern TAGE-SC-L configurations use; capacity is
// rounded up to a power of two.
type Global struct {
	bits []uint8
	ptr  int // index of the most recent bit
	mask int
}

// NewGlobal returns a history able to answer Bit(age) for age < capacity.
func NewGlobal(capacity int) *Global {
	n := 1
	for n < capacity+1 {
		n <<= 1
	}
	return &Global{bits: make([]uint8, n), mask: n - 1}
}

// Push records the newest direction bit (1 = taken).
func (g *Global) Push(bit uint8) {
	g.ptr = (g.ptr - 1) & g.mask
	g.bits[g.ptr] = bit & 1
}

// Bit returns the direction bit age positions in the past; age 0 is the
// most recently pushed bit.
func (g *Global) Bit(age int) uint8 {
	return g.bits[(g.ptr+age)&g.mask]
}

// Capacity returns the number of bits the history retains.
func (g *Global) Capacity() int { return len(g.bits) }

// Hash returns an XOR-fold of the most recent n history bits into width
// bits. It is O(n); predictors use Folded for per-branch work and reserve
// Hash for analysis and for the synthetic workloads' outcome functions.
func (g *Global) Hash(n int, width uint) uint64 {
	var h uint64
	var acc uint64
	shift := uint(0)
	for i := 0; i < n; i++ {
		acc |= uint64(g.Bit(i)) << shift
		shift++
		if shift == 64 {
			h = h*0x9e3779b97f4a7c15 + acc
			acc, shift = 0, 0
		}
	}
	if shift > 0 {
		h = h*0x9e3779b97f4a7c15 + acc
	}
	// Finalize (splitmix64-style) and fold.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	if width >= 64 {
		return h
	}
	var out uint64
	for h != 0 {
		out ^= h & ((1 << width) - 1)
		h >>= width
	}
	return out
}

// Folded maintains a compLen-bit cyclic compression of the most recent
// origLen global-history bits, updated in O(1) per branch (Michaud/Seznec
// folded history). Predictor tables keep one Folded per (table, use) pair.
//
// The layout is 16 bytes so a table's folds share cache lines, and the
// update has no variable shift that could reach 64: the aging-out bit
// enters through the precomputed outBit mask, and compLen (at most 32) is
// masked at use, so the compiler emits a bare shift instead of the guard
// Go's semantics require for larger counts.
type Folded struct {
	comp    uint32
	mask    uint32 // (1 << compLen) - 1, precomputed for the hot path
	outBit  uint32 // 1 << (origLen % compLen): where the aging-out bit folds in
	origLen uint16
	compLen uint8
}

// NewFolded returns a compression of origLen bits into compLen bits
// (0 <= origLen < 1<<16, 1 <= compLen <= 32).
func NewFolded(origLen int, compLen uint) *Folded {
	f := MakeFolded(origLen, compLen)
	return &f
}

// MakeFolded is NewFolded by value, for predictors that keep their folded
// registers inline in flat arrays instead of behind per-register pointers.
func MakeFolded(origLen int, compLen uint) Folded {
	if compLen < 1 || compLen > 32 {
		panic("history: folded compression length out of range")
	}
	if origLen < 0 || origLen > math.MaxUint16 {
		panic("history: folded history length out of range")
	}
	return Folded{
		mask:    uint32(uint64(1)<<compLen - 1),
		compLen: uint8(compLen),
		outBit:  uint32(1) << (uint(origLen) % compLen),
		origLen: uint16(origLen),
	}
}

// Update advances the compression after g.Push recorded the newest bit.
// It must be called exactly once per pushed bit, after the push.
func (f *Folded) Update(g *Global) {
	f.UpdateBits(uint64(g.Bit(0)), uint64(g.Bit(int(f.origLen))))
}

// UpdateBits is Update with the two history bits (the newest bit and the
// bit aging out past origLen, each 0 or 1) supplied by the caller.
// Predictors updating many folds that share an origLen use it to fetch
// each bit from the global history once instead of once per fold.
func (f *Folded) UpdateBits(newest, oldest uint64) {
	c := uint64(f.comp)<<1 | newest
	c ^= -oldest & uint64(f.outBit) // oldest is 0 or 1
	c ^= c >> (f.compLen & 63)
	f.comp = uint32(c) & f.mask
}

// Value returns the current compLen-bit compression.
func (f *Folded) Value() uint64 { return uint64(f.comp) }

// OrigLen returns the history length being compressed.
func (f *Folded) OrigLen() int { return int(f.origLen) }

// Reset clears the compression (used when rebuilding state).
func (f *Folded) Reset() { f.comp = 0 }

// Path is a short history of branch-address bits, used to decorrelate
// index hashes of tables with identical history lengths.
type Path struct {
	value uint64
	mask  uint64 // (1 << width) - 1, precomputed for the hot path
	width uint
}

// NewPath returns a path history retaining width bits (width <= 64).
func NewPath(width uint) *Path {
	if width == 0 || width > 64 {
		panic("history: path width out of range")
	}
	return &Path{mask: ^uint64(0) >> (64 - width), width: width}
}

// Push shifts one address bit of pc into the path history.
func (p *Path) Push(pc uint64) {
	p.value = ((p.value << 1) | ((pc >> 2) & 1)) & p.mask
}

// Value returns the current path bits.
func (p *Path) Value() uint64 { return p.value }
