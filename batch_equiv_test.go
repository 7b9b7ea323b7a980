package llbpx_test

// Differential tests for the batched prediction API: core.RunBatch (both
// the concrete per-predictor fast paths and the generic fallback) and the
// batching inside sim.Run must be observably identical to the canonical
// per-branch Predict/Update/TrackUnconditional loop.

import (
	"reflect"
	"testing"

	"llbpx"
	"llbpx/internal/core"
	"llbpx/internal/sim"
)

// perBranchDrive is the canonical loop, calling through the interface one
// branch at a time.
func perBranchDrive(p llbpx.Predictor, stream []llbpx.Branch, preds []llbpx.Prediction) {
	for i, b := range stream {
		if b.Kind.Conditional() {
			pred := p.Predict(b.PC)
			preds[i] = pred
			p.Update(b, pred)
		} else {
			p.TrackUnconditional(b)
			preds[i] = llbpx.Prediction{Taken: true}
		}
	}
}

func statsOf(p llbpx.Predictor) map[string]float64 {
	if sp, ok := p.(core.StatsProvider); ok {
		return sp.Stats()
	}
	return nil
}

// noBatch hides a predictor's RunBatch method so core.RunBatch takes its
// generic fallback path.
type noBatch struct{ llbpx.Predictor }

// TestRunBatchMatchesPerBranch drives two identical predictors over the
// same stream — one per-branch, one through core.RunBatch in deliberately
// awkward chunk sizes — and requires identical predictions and identical
// internal counters, for both the concrete and the fallback dispatch, for
// every registry predictor.
func TestRunBatchMatchesPerBranch(t *testing.T) {
	chunks := []int{1, 3, 64, 511, 513, 7}
	for _, predName := range builtinPredictors {
		for _, fallback := range []bool{false, true} {
			name := predName
			if fallback {
				name += "/fallback"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				st := rtStreams()["nodeapp"]
				stream := append(append([]llbpx.Branch{}, st.warm...), st.compare...)
				ref, err := llbpx.NewPredictorByName(predName)
				if err != nil {
					t.Fatal(err)
				}
				bat, err := llbpx.NewPredictorByName(predName)
				if err != nil {
					t.Fatal(err)
				}
				driven := bat
				if fallback {
					if _, ok := driven.(core.BatchPredictor); !ok {
						t.Fatalf("%s has no concrete RunBatch; fallback subtest is vacuous", predName)
					}
					driven = noBatch{bat}
				}
				refPreds := make([]llbpx.Prediction, len(stream))
				batPreds := make([]llbpx.Prediction, len(stream))
				perBranchDrive(ref, stream, refPreds)
				for off, ci := 0, 0; off < len(stream); ci++ {
					n := chunks[ci%len(chunks)]
					if off+n > len(stream) {
						n = len(stream) - off
					}
					core.RunBatch(driven, stream[off:off+n], batPreds[off:off+n])
					off += n
				}
				for i := range refPreds {
					if refPreds[i] != batPreds[i] {
						t.Fatalf("prediction %d of %d diverged: batched %+v, per-branch %+v",
							i, len(stream), batPreds[i], refPreds[i])
					}
				}
				if rs, bs := statsOf(ref), statsOf(bat); !reflect.DeepEqual(rs, bs) {
					t.Errorf("internal counters diverged:\nper-branch %v\nbatched    %v", rs, bs)
				}
			})
		}
	}
}

// simReference reimplements sim.Run's original per-branch loop; the
// batched sim.Run must produce an identical Result, including the phase
// split at the warmup boundary and the Truncated flag.
func simReference(p core.Predictor, src core.Source, opt sim.Options) sim.Result {
	reset := func() {
		if r, ok := p.(core.Resetter); ok {
			r.ResetStats()
		}
	}
	res := sim.Result{Predictor: p.Name()}
	var instr uint64
	measuring := opt.WarmupInstr == 0
	if measuring {
		reset()
	}
	limit := opt.WarmupInstr + opt.MeasureInstr
	for instr < limit {
		b, ok := src.Next()
		if !ok {
			res.Truncated = true
			break
		}
		instr += b.Instructions()
		phase := &res.Warmup
		if measuring {
			phase = &res.Measured
		}
		phase.Instructions += b.Instructions()
		if b.Kind.Conditional() {
			phase.CondBranches++
			pred := p.Predict(b.PC)
			if pred.Taken != b.Taken {
				phase.Mispredicts++
			} else if pred.FromSecondLevel {
				phase.SecondLevelOK++
			}
			if pred.Taken != pred.FastTaken {
				phase.Overrides++
			}
			p.Update(b, pred)
		} else {
			phase.UncondCount++
			p.TrackUnconditional(b)
		}
		if !measuring && instr >= opt.WarmupInstr {
			measuring = true
			reset()
		}
	}
	if sp, ok := p.(core.StatsProvider); ok {
		res.Extra = sp.Stats()
	}
	return res
}

// TestSimRunMatchesPerBranchLoop compares the batched sim.Run against the
// per-branch reference for warmup boundaries that land mid-batch and for a
// truncating source.
func TestSimRunMatchesPerBranchLoop(t *testing.T) {
	st := rtStreams()["whiskey"]
	stream := append(append([]llbpx.Branch{}, st.warm...), st.compare...)
	cases := []struct {
		name string
		opt  sim.Options
	}{
		{"boundary-mid-batch", sim.Options{WarmupInstr: 33_333, MeasureInstr: 55_555}},
		{"zero-warmup", sim.Options{MeasureInstr: 70_000}},
		{"truncated", sim.Options{WarmupInstr: 50_000, MeasureInstr: 100_000_000}},
	}
	for _, predName := range []string{"tsl-64k", "llbp", "llbp-x"} {
		for _, tc := range cases {
			t.Run(predName+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				ref, err := llbpx.NewPredictorByName(predName)
				if err != nil {
					t.Fatal(err)
				}
				bat, err := llbpx.NewPredictorByName(predName)
				if err != nil {
					t.Fatal(err)
				}
				want := simReference(ref, core.NewSliceSource(stream), tc.opt)
				got, err := sim.Run(bat, core.NewSliceSource(stream), tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("sim.Run diverged from per-branch reference:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}
