// Package hashutil provides the small deterministic hashing and
// pseudo-random primitives shared by the predictors and the workload
// generator: folded XOR hashes for index/tag formation, a 64-bit mixer, and
// a splitmix64 PRNG used wherever reproducible randomness is needed.
package hashutil

// Mix64 is the splitmix64 finalizer: a fast, high-quality 64-bit mixing
// function. It is the basis for context-ID hashing and for the synthetic
// workloads' deterministic "random" functions.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Combine folds b into a, producing a new 64-bit hash. It is associative
// enough for rolling use but order-sensitive, which context formation
// requires (the same unconditional branches in a different order must form
// a different context).
func Combine(a, b uint64) uint64 {
	return Mix64(a*0x9e3779b97f4a7c15 + b)
}

// Fold reduces a 64-bit value to n bits (1 <= n <= 63) by XOR-folding all
// 64 bits into the low n: the result is the XOR of the n-bit chunks
// x[0:n], x[n:2n], ... For n >= 64 it returns x unchanged.
//
// Fold is linear over XOR, Fold(a^b) == Fold(a)^Fold(b), and the identity
// on values below 1<<n; hot paths use both facts to fold constants once
// and to skip values that are already narrow.
func Fold(x uint64, n uint) uint64 {
	if n >= 64 {
		return x
	}
	return FoldN(x, n, FoldSpan(64, n))
}

// FoldSpan returns the window FoldN starts from when folding a width-bit
// value to n >= 1 bits: the least n<<s that is at least width.
func FoldSpan(width, n uint) uint {
	span := n
	for span < width {
		span <<= 1
	}
	return span
}

// FoldN folds x, a value below 1<<span, to n bits (1 <= n <= 63), with
// span = FoldSpan(width, n) precomputed by the caller. Each step XORs the
// upper half of the window onto its lower half and halves the window, so
// the work is a fixed number of shift/XOR pairs with no data-dependent
// branch. The shifts stay below 64 by FoldSpan's minimality; the masks
// only tell the compiler so.
func FoldN(x uint64, n, span uint) uint64 {
	for span > n {
		span >>= 1
		x ^= x >> (span & 63)
	}
	return x & (1<<(n&63) - 1)
}

// PCMix spreads the entropy of an instruction address. Branch PCs tend to
// differ only in their low bits; PCMix makes all bits usable for indexing.
func PCMix(pc uint64) uint64 {
	return pc ^ (pc >> 2) ^ (pc >> 5)
}

// FNV1a returns the 64-bit FNV-1a hash of s. It is the string-keyed
// sibling of Mix64, used where string identifiers (session IDs) must be
// spread across shards without allocating.
func FNV1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Rand is a splitmix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; use NewRand to seed explicitly. It is
// deliberately tiny and allocation-free so workload models can embed one
// per branch site.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Seed resets the generator state.
func (r *Rand) Seed(seed uint64) { r.state = seed }

// State returns the current generator state, so deterministic components
// can checkpoint and later restore (via Seed) their random sequence.
func (r *Rand) State() uint64 { return r.state }

// Uint64 returns the next 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("hashutil: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}
