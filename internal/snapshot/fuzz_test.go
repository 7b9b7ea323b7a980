package snapshot_test

import (
	"bytes"
	"sync"
	"testing"

	"llbpx"
	"llbpx/internal/snapshot"
)

// fuzzBranches lazily builds one deterministic branch stream shared by
// seed generation and post-restore smoke drives.
var fuzzBranches = sync.OnceValue(func() []llbpx.Branch {
	prof, err := llbpx.WorkloadByName("nodeapp")
	if err != nil {
		panic(err)
	}
	prog, err := llbpx.BuildProgram(prof)
	if err != nil {
		panic(err)
	}
	gen := llbpx.NewGenerator(prog)
	out := make([]llbpx.Branch, 4096)
	for i := range out {
		out[i], _ = gen.Next()
	}
	return out
})

// drive pushes n branches through a predictor (panics propagate to the
// fuzzer as failures).
func drive(p llbpx.Predictor, branches []llbpx.Branch, n int) {
	for i := 0; i < n && i < len(branches); i++ {
		b := branches[i]
		if b.Kind.Conditional() {
			p.Update(b, p.Predict(b.PC))
		} else {
			p.TrackUnconditional(b)
		}
	}
}

// warmSnapshot serializes a briefly trained predictor of the named
// configuration.
func warmSnapshot(tb testing.TB, name string) []byte {
	tb.Helper()
	p, err := llbpx.NewPredictorByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	drive(p, fuzzBranches(), 2048)
	var buf bytes.Buffer
	if err := llbpx.SavePredictorState(&buf, name, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotDecode asserts the hard decode contract: arbitrary bytes
// either fail with an error or yield a predictor that is actually usable —
// never a panic, never unbounded allocation, never a silently broken
// instance.
func FuzzSnapshotDecode(f *testing.F) {
	for _, name := range []string{"tsl-8k", "llbp", "llbp-x"} {
		valid := warmSnapshot(f, name)
		f.Add(valid)
		// Corrupt variants steer the fuzzer toward interesting prefixes.
		for _, i := range []int{0, 8, 9, len(valid) / 2, len(valid) - 2} {
			mut := bytes.Clone(valid)
			mut[i] ^= 0x41
			f.Add(mut)
		}
		f.Add(valid[:len(valid)/3])
	}
	f.Add([]byte{})
	f.Add([]byte("LLBPSNAP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, _, err := llbpx.LoadPredictorState(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must hand back a working predictor.
		drive(p, fuzzBranches(), 256)
	})
}

// TestLoadPrefixVerdictsMatchReference cuts a real llbp-x snapshot at
// every prefix through its first KB (header and first components) and
// its last 256 bytes (last components and trailer), and at every 127th
// byte across the rest, and requires Load's verdict on each to be the
// byte-at-a-time reference decoder's. Every prefix of the ~120 KB blob
// would cost minutes of quadratic decoding; the stride is prime, so it
// lands at every phase of the varint and component structure.
func TestLoadPrefixVerdictsMatchReference(t *testing.T) {
	blob := warmSnapshot(t, "llbp-x")
	const head, tail, stride = 1024, 256, 127
	var prefixes []int
	for k := 0; k <= len(blob); k++ {
		if k < head || k >= len(blob)-tail || k%stride == 0 {
			prefixes = append(prefixes, k)
		}
	}
	snapshot.CheckPrefixVerdicts(t, blob, func(name string) (snapshot.State, error) {
		p, err := llbpx.NewPredictorByName(name)
		if err != nil {
			return nil, err
		}
		return p.(snapshot.State), nil
	}, prefixes)
}
