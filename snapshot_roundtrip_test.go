package llbpx_test

// Snapshot round-trip divergence matrix: for every registry predictor and
// every synthetic workload, a predictor warmed on the stream's head,
// checkpointed, and restored into a fresh instance must produce
// bit-identical predictions and statistics over the stream's tail compared
// to a reference that was never snapshotted. This is the golden bar of the
// checkpointing subsystem — "close" MPKI is not enough, because a single
// mis-restored counter silently skews every downstream experiment.

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"llbpx"
)

// Segment sizes in instructions: long enough that the warm predictor holds
// non-trivial state in every component (TAGE tables, loop predictor, SC,
// RCR, pattern sets, pattern buffer, CTT), short enough that the full
// 10x14 matrix stays in tier-1 test budget.
const (
	rtWarmInstr    = 40_000
	rtCompareInstr = 80_000
)

// rtStream is one workload's materialized branch stream, split at the
// warm/compare boundary.
type rtStream struct {
	warm    []llbpx.Branch
	compare []llbpx.Branch
}

// rtStreams materializes each workload's stream exactly once, shared
// read-only by every predictor's subtests.
var rtStreams = sync.OnceValue(func() map[string]*rtStream {
	out := make(map[string]*rtStream)
	for _, name := range llbpx.WorkloadNames() {
		prof, err := llbpx.WorkloadByName(name)
		if err != nil {
			panic(err)
		}
		prog, err := llbpx.BuildProgram(prof)
		if err != nil {
			panic(err)
		}
		gen := llbpx.NewGenerator(prog)
		st := &rtStream{}
		for instr := uint64(0); instr < rtWarmInstr; {
			b, ok := gen.Next()
			if !ok {
				break
			}
			instr += b.Instructions()
			st.warm = append(st.warm, b)
		}
		for instr := uint64(0); instr < rtCompareInstr; {
			b, ok := gen.Next()
			if !ok {
				break
			}
			instr += b.Instructions()
			st.compare = append(st.compare, b)
		}
		out[name] = st
	}
	return out
})

// rtDrive feeds branches through p, appending the Prediction of every
// conditional branch to sink (when non-nil) and returning it.
func rtDrive(p llbpx.Predictor, branches []llbpx.Branch, sink []llbpx.Prediction) []llbpx.Prediction {
	for _, b := range branches {
		if b.Kind.Conditional() {
			pred := p.Predict(b.PC)
			if sink != nil {
				sink = append(sink, pred)
			}
			p.Update(b, pred)
		} else {
			p.TrackUnconditional(b)
		}
	}
	return sink
}

// rtStats returns the predictor's internal counter map, or nil if it does
// not expose one.
func rtStats(p llbpx.Predictor) map[string]float64 {
	if sp, ok := p.(interface{ Stats() map[string]float64 }); ok {
		return sp.Stats()
	}
	return nil
}

func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	for _, predName := range builtinPredictors {
		for _, wlName := range llbpx.WorkloadNames() {
			t.Run(predName+"/"+wlName, func(t *testing.T) {
				t.Parallel()
				st := rtStreams()[wlName]
				if st == nil || len(st.compare) == 0 {
					t.Fatalf("no stream for workload %q", wlName)
				}

				// Reference: never snapshotted, drives the whole stream.
				ref, err := llbpx.NewPredictorByName(predName)
				if err != nil {
					t.Fatal(err)
				}
				rtDrive(ref, st.warm, nil)
				wantPreds := rtDrive(ref, st.compare, make([]llbpx.Prediction, 0, len(st.compare)))

				// Candidate: warmed identically, checkpointed, restored into
				// a fresh instance, then driven over the tail.
				cand, err := llbpx.NewPredictorByName(predName)
				if err != nil {
					t.Fatal(err)
				}
				rtDrive(cand, st.warm, nil)
				var buf bytes.Buffer
				if err := llbpx.SavePredictorState(&buf, predName, cand); err != nil {
					t.Fatal(err)
				}
				restored, gotName, err := llbpx.LoadPredictorState(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				if gotName != predName {
					t.Fatalf("restored name %q, want %q", gotName, predName)
				}
				gotPreds := rtDrive(restored, st.compare, make([]llbpx.Prediction, 0, len(st.compare)))

				if len(gotPreds) != len(wantPreds) {
					t.Fatalf("prediction count %d != %d", len(gotPreds), len(wantPreds))
				}
				for i := range wantPreds {
					if gotPreds[i] != wantPreds[i] {
						t.Fatalf("first divergence at conditional %d of %d: restored %+v, reference %+v",
							i, len(wantPreds), gotPreds[i], wantPreds[i])
					}
				}
				if want, got := rtStats(ref), rtStats(restored); !reflect.DeepEqual(want, got) {
					t.Errorf("internal counters diverged after identical stream:\nreference %v\nrestored  %v", want, got)
				}
			})
		}
	}
}

// TestSnapshotRestoreAfterSaveContinuesIdentically covers the other
// consumer ordering: the predictor that was saved keeps running — its
// future must match its own snapshot's future (Save must not perturb live
// state).
func TestSnapshotRestoreAfterSaveContinuesIdentically(t *testing.T) {
	t.Parallel()
	st := rtStreams()["nodeapp"]
	for _, predName := range []string{"tsl-64k", "llbp", "llbp-x"} {
		p, err := llbpx.NewPredictorByName(predName)
		if err != nil {
			t.Fatal(err)
		}
		rtDrive(p, st.warm, nil)
		var buf bytes.Buffer
		if err := llbpx.SavePredictorState(&buf, predName, p); err != nil {
			t.Fatal(err)
		}
		cont := rtDrive(p, st.compare, make([]llbpx.Prediction, 0, len(st.compare)))
		restored, _, err := llbpx.LoadPredictorState(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		again := rtDrive(restored, st.compare, make([]llbpx.Prediction, 0, len(st.compare)))
		for i := range cont {
			if cont[i] != again[i] {
				t.Fatalf("%s: saved-and-continued diverges from restored at conditional %d", predName, i)
			}
		}
	}
}

// TestCorruptSnapshotNeverLoads: every single-byte corruption and every
// truncation of a real predictor snapshot must fail with
// ErrSnapshotCorrupt — never succeed, never panic.
func TestCorruptSnapshotNeverLoads(t *testing.T) {
	t.Parallel()
	st := rtStreams()["chirper"]
	p, err := llbpx.NewPredictorByName("tsl-8k")
	if err != nil {
		t.Fatal(err)
	}
	rtDrive(p, st.warm, nil)
	var buf bytes.Buffer
	if err := llbpx.SavePredictorState(&buf, "tsl-8k", p); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	// Sampled byte flips across the stream (every byte would be slow on a
	// multi-kilobyte snapshot); always include the header and trailer.
	positions := []int{0, 1, 7, 8, 9, 10, len(orig) / 4, len(orig) / 2, len(orig) - 5, len(orig) - 1}
	for step := 37; step < len(orig); step += 97 {
		positions = append(positions, step)
	}
	for _, i := range positions {
		data := bytes.Clone(orig)
		data[i] ^= 0x6d
		if _, _, err := llbpx.LoadPredictorState(bytes.NewReader(data)); err == nil {
			t.Fatalf("corruption at byte %d/%d loaded successfully", i, len(orig))
		}
	}
	for _, n := range []int{0, 4, 8, 12, len(orig) / 2, len(orig) - 4, len(orig) - 1} {
		_, _, err := llbpx.LoadPredictorState(bytes.NewReader(orig[:n]))
		if !errors.Is(err, llbpx.ErrSnapshotCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrSnapshotCorrupt", n, err)
		}
	}
}

// TestSnapshotUnknownPredictorName: a snapshot naming a configuration the
// registry does not know must error out of construct, not panic.
func TestSnapshotUnknownPredictorName(t *testing.T) {
	t.Parallel()
	st := rtStreams()["nodeapp"]
	p, err := llbpx.NewPredictorByName("tsl-8k")
	if err != nil {
		t.Fatal(err)
	}
	rtDrive(p, st.warm[:1000], nil)
	var buf bytes.Buffer
	if err := llbpx.SavePredictorState(&buf, "no-such-predictor", p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := llbpx.LoadPredictorState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("snapshot with unknown predictor name loaded successfully")
	}
}
