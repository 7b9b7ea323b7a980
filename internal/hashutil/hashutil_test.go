package hashutil

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMix64Deterministic(t *testing.T) {
	for _, x := range []uint64{0, 1, 42, 1 << 63, ^uint64(0)} {
		if Mix64(x) != Mix64(x) {
			t.Fatalf("Mix64(%d) not deterministic", x)
		}
	}
}

func TestMix64Spreads(t *testing.T) {
	// Neighbouring inputs must differ in many output bits (avalanche).
	for x := uint64(0); x < 1000; x++ {
		diff := Mix64(x) ^ Mix64(x+1)
		bits := 0
		for d := diff; d != 0; d >>= 1 {
			bits += int(d & 1)
		}
		if bits < 10 {
			t.Fatalf("Mix64 avalanche too weak at %d: %d differing bits", x, bits)
		}
	}
}

func TestMix64Injective(t *testing.T) {
	// splitmix64's finalizer is a bijection; spot-check for collisions.
	seen := make(map[uint64]uint64)
	for x := uint64(0); x < 100000; x++ {
		h := Mix64(x)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", x, prev)
		}
		seen[h] = x
	}
}

func TestCombineOrderSensitive(t *testing.T) {
	a, b := uint64(0x1234), uint64(0x9876)
	if Combine(Combine(0, a), b) == Combine(Combine(0, b), a) {
		t.Fatal("Combine must be order sensitive (context IDs depend on branch order)")
	}
}

func TestFoldWidth(t *testing.T) {
	prop := func(x uint64, nRaw uint8) bool {
		n := uint(nRaw%63) + 1
		return Fold(x, n) < 1<<n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFoldFullWidth(t *testing.T) {
	if Fold(0xdeadbeef, 64) != 0xdeadbeef {
		t.Fatal("Fold with n >= 64 must be identity")
	}
}

func TestFoldPreservesParityOfSetBits(t *testing.T) {
	// Folding to 1 bit equals the XOR of all bits (parity).
	prop := func(x uint64) bool {
		parity := uint64(0)
		for v := x; v != 0; v >>= 1 {
			parity ^= v & 1
		}
		return Fold(x, 1) == parity
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// refFold is the chunk-by-chunk definition of Fold: XOR every n-bit chunk
// of x into the low n bits.
func refFold(x uint64, n uint) uint64 {
	var out uint64
	for x != 0 {
		out ^= x & (1<<n - 1)
		x >>= n
	}
	return out
}

// TestFoldMatchesReference checks the halving fold, and the split form
// of the TAGE index hash built on its XOR-linearity, against refFold for
// every width on random inputs.
func TestFoldMatchesReference(t *testing.T) {
	r := NewRand(0xf01d)
	for n := uint(1); n <= 63; n++ {
		span := FoldSpan(64, n)
		narrowSpan := FoldSpan(16, n)
		for trial := 0; trial < 2000; trial++ {
			x := r.Uint64() >> (r.Uint64() % 64)
			want := refFold(x, n)
			if got := Fold(x, n); got != want {
				t.Fatalf("Fold(%#x, %d) = %#x, want %#x", x, n, got, want)
			}
			if got := FoldN(x, n, span); got != want {
				t.Fatalf("FoldN(%#x, %d, %d) = %#x, want %#x", x, n, span, got, want)
			}
			// Index-hash split: a wide PC term, a 16-bit path term, a
			// register already narrower than n, and a constant.
			pcTerm, path := r.Uint64(), r.Uint64()&0xffff
			reg, konst := r.Uint64()&(1<<n-1), r.Uint64()
			whole := refFold(pcTerm^path^reg^konst, n)
			split := FoldN(pcTerm, n, span) ^ FoldN(path, n, narrowSpan) ^ reg ^ Fold(konst, n)
			if split != whole {
				t.Fatalf("n=%d: split index fold %#x, want %#x", n, split, whole)
			}
		}
	}
}

func TestFoldSpan(t *testing.T) {
	for _, c := range []struct{ width, n, want uint }{
		{64, 1, 64}, {64, 7, 112}, {64, 10, 80}, {64, 31, 124}, {64, 32, 64}, {64, 63, 126},
		{16, 7, 28}, {16, 8, 16}, {16, 13, 26}, {16, 16, 16}, {16, 20, 20},
	} {
		if got := FoldSpan(c.width, c.n); got != c.want {
			t.Errorf("FoldSpan(%d, %d) = %d, want %d", c.width, c.n, got, c.want)
		}
	}
}

func TestRandDeterministicAndSeeded(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield the same sequence")
		}
	}
	c := NewRand(8)
	same := 0
	a.Seed(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bool(0.3) rate %.4f far from 0.3", frac)
	}
}

func TestFNV1aReference(t *testing.T) {
	// Known FNV-1a vectors.
	cases := map[string]uint64{
		"":    14695981039346656037,
		"a":   0xaf63dc4c8601ec8c,
		"foo": 0xdcb27518fed9d577,
	}
	for s, want := range cases {
		if got := FNV1a(s); got != want {
			t.Fatalf("FNV1a(%q) = %#x, want %#x", s, got, want)
		}
	}
}

func TestFNV1aSpreadsShards(t *testing.T) {
	// Session-ID-like strings must spread across a small shard count.
	const shards = 16
	var counts [shards]int
	const n = 1024
	for i := 0; i < n; i++ {
		counts[FNV1a(fmt.Sprintf("session-%d", i))%shards]++
	}
	for s, c := range counts {
		if c < n/shards/4 || c > n/shards*4 {
			t.Fatalf("shard %d holds %d/%d keys: FNV1a spreads poorly", s, c, n)
		}
	}
}

func TestPCMixDeterministic(t *testing.T) {
	if PCMix(0x400123) != PCMix(0x400123) {
		t.Fatal("PCMix must be deterministic")
	}
	if PCMix(0x400120) == PCMix(0x400124) {
		t.Fatal("PCMix should distinguish adjacent instruction addresses")
	}
}
