package llbpx_test

// Golden prediction-fingerprint suite: the differential-equivalence bar of
// the hot-path work. For every registry predictor and every synthetic
// workload, testdata/fingerprints.json records an FNV-1a hash over the
// predicted direction stream plus the exact MPKI, captured from the
// reference implementation. Every future change to the prediction hot path
// must reproduce these bit-for-bit: a single flipped prediction anywhere in
// the stream changes the hash. Re-record (only when an intentional
// behavioral change is being made, never to "fix" a refactor) with:
//
//	LLBPX_RECORD_FINGERPRINTS=1 go test -run TestGoldenFingerprints .

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"llbpx"
)

const fingerprintPath = "testdata/fingerprints.json"

// builtinPredictors is the registry as the program ships it, captured
// before any test registers a predictor of its own, so the golden suites
// see the same names however often and in whatever order tests run.
var builtinPredictors = llbpx.PredictorNames()

// fingerprint is one (predictor, workload) cell of the golden matrix.
type fingerprint struct {
	// Hash is the 64-bit FNV-1a over the direction stream (one byte per
	// conditional branch: 'T' or 'N'), in hex.
	Hash string `json:"hash"`
	// Cond is the number of conditional branches hashed.
	Cond uint64 `json:"cond"`
	// MPKI is the exact mispredictions-per-kilo-instruction over the span;
	// float64 JSON round-trips exactly, so equality is bit-exact.
	MPKI float64 `json:"mpki"`
}

// fpShortPredictors / fpShortWorkloads are the -short subset: the three
// hot-path predictors over three structurally distinct workloads.
var (
	fpShortPredictors = map[string]bool{"tsl-64k": true, "llbp": true, "llbp-x": true}
	fpShortWorkloads  = map[string]bool{"nodeapp": true, "whiskey": true, "tpcc": true}
)

// fpDrive runs p over the workload's full recorded stream (warm + compare
// segments, ~120k instructions) and returns the fingerprint.
func fpDrive(p llbpx.Predictor, st *rtStream) fingerprint {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	var cond, mis, instr uint64
	for _, seg := range [][]llbpx.Branch{st.warm, st.compare} {
		for _, b := range seg {
			instr += b.Instructions()
			if !b.Kind.Conditional() {
				p.TrackUnconditional(b)
				continue
			}
			pred := p.Predict(b.PC)
			byte_ := byte('N')
			if pred.Taken {
				byte_ = 'T'
			}
			h ^= uint64(byte_)
			h *= fnvPrime
			cond++
			if pred.Taken != b.Taken {
				mis++
			}
			p.Update(b, pred)
		}
	}
	var mpki float64
	if instr > 0 {
		mpki = float64(mis) / float64(instr) * 1000
	}
	return fingerprint{Hash: fmt.Sprintf("%016x", h), Cond: cond, MPKI: mpki}
}

func loadFingerprints(t *testing.T) map[string]fingerprint {
	t.Helper()
	data, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatalf("golden fingerprints missing (record with LLBPX_RECORD_FINGERPRINTS=1): %v", err)
	}
	var out map[string]fingerprint
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("corrupt %s: %v", fingerprintPath, err)
	}
	return out
}

// TestGoldenFingerprints asserts bit-identical reproduction of the recorded
// direction streams for the full 12x14 (predictor, workload) matrix, or the
// 3x3 hot-path subset in -short mode.
func TestGoldenFingerprints(t *testing.T) {
	recording := os.Getenv("LLBPX_RECORD_FINGERPRINTS") != ""
	var golden map[string]fingerprint
	if !recording {
		golden = loadFingerprints(t)
	}

	type cell struct {
		key string
		fp  fingerprint
	}
	results := make(chan cell, len(builtinPredictors)*len(llbpx.WorkloadNames()))
	cells := 0
	for _, predName := range builtinPredictors {
		for _, wlName := range llbpx.WorkloadNames() {
			if testing.Short() && !recording &&
				!(fpShortPredictors[predName] && fpShortWorkloads[wlName]) {
				continue
			}
			predName, wlName := predName, wlName
			key := predName + "/" + wlName
			cells++
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				st := rtStreams()[wlName]
				if st == nil {
					t.Fatalf("no stream for workload %q", wlName)
				}
				p, err := llbpx.NewPredictorByName(predName)
				if err != nil {
					t.Fatal(err)
				}
				got := fpDrive(p, st)
				results <- cell{key, got}
				if recording {
					return
				}
				want, ok := golden[key]
				if !ok {
					t.Fatalf("no golden fingerprint for %s — record with LLBPX_RECORD_FINGERPRINTS=1", key)
				}
				if got != want {
					t.Errorf("prediction stream diverged from golden:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}

	if recording {
		// Cleanup runs after all parallel subtests finish.
		t.Cleanup(func() {
			close(results)
			recorded := make(map[string]fingerprint, cells)
			for c := range results {
				recorded[c.key] = c.fp
			}
			if len(recorded) != cells {
				t.Fatalf("recorded %d cells, expected %d", len(recorded), cells)
			}
			if err := os.MkdirAll(filepath.Dir(fingerprintPath), 0o755); err != nil {
				t.Fatal(err)
			}
			data, err := json.MarshalIndent(recorded, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(fingerprintPath, append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("recorded %d fingerprints to %s", len(recorded), fingerprintPath)
		})
	}
}
