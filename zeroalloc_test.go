package llbpx_test

// Steady-state allocation bar for the prediction hot path: once a hot-path
// predictor has warmed up and replayed its window (so every table,
// pattern-buffer slot, and scratch buffer has reached working size),
// further replay must perform zero heap allocations, both branch by branch
// through the Predictor interface and in core.RunBatch batches. This is
// the testing.AllocsPerRun twin of the allocs columns of BenchmarkHotPath
// and BenchmarkRunBatch — the benchmarks round per-op counts down, this
// test fails on a single allocation anywhere in a window.
//
// testing.AllocsPerRun counts mallocs across the whole process, so a cell
// can only be measured while nothing else in the process allocates. The
// gate therefore runs in two phases: stream generation and warm-up run as
// parallel subtests, and the measurements run one cell at a time after
// every warm-up has finished.

import (
	"strings"
	"testing"

	"llbpx"
	"llbpx/internal/core"
)

// zaStream materializes warmInstr+windowInstr instructions of a workload.
func zaStream(t *testing.T, wl string, warmInstr, windowInstr uint64) (warm, window []llbpx.Branch) {
	t.Helper()
	prof, err := llbpx.WorkloadByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := llbpx.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	gen := llbpx.NewGenerator(prog)
	take := func(budget uint64) []llbpx.Branch {
		var out []llbpx.Branch
		for instr := uint64(0); instr < budget; {
			br, ok := gen.Next()
			if !ok {
				break
			}
			instr += br.Instructions()
			out = append(out, br)
		}
		return out
	}
	return take(warmInstr), take(windowInstr)
}

// zaBatchLen is the batch size of the RunBatch half of the gate, the size
// perfbench and BenchmarkRunBatch use.
const zaBatchLen = 1024

// zaCell is one warmed gate cell: a predictor and the window it replays.
type zaCell struct {
	p      llbpx.Predictor
	window []llbpx.Branch
	preds  []llbpx.Prediction
	// after, when set, runs once the cell has been measured: it checks
	// state the measurement must have run against and releases what the
	// warm-up attached. Releasing any earlier would let the measured runs
	// replay different storage than the warm-up built.
	after func(t *testing.T)
}

// perBranch replays the window one branch at a time through the interface.
func (c *zaCell) perBranch() {
	for _, br := range c.window {
		if br.Kind.Conditional() {
			c.p.Update(br, c.p.Predict(br.PC))
		} else {
			c.p.TrackUnconditional(br)
		}
	}
}

// batched replays the window through core.RunBatch in zaBatchLen chunks.
func (c *zaCell) batched() {
	for off := 0; off < len(c.window); off += zaBatchLen {
		end := min(off+zaBatchLen, len(c.window))
		core.RunBatch(c.p, c.window[off:end], c.preds[:end-off])
	}
}

// zaWarmCell brings p to steady state and returns its cell: the warm
// segment once, then settling replays of the window on both paths — the
// first lets remaining cold structures (prefetch buffers, scratch) reach
// working size, the next confirm the window's churn pattern is stable.
func zaWarmCell(p llbpx.Predictor, warm, window []llbpx.Branch) *zaCell {
	(&zaCell{p: p, window: warm}).perBranch()
	c := &zaCell{p: p, window: window, preds: make([]llbpx.Prediction, zaBatchLen)}
	c.perBranch()
	c.batched()
	c.perBranch()
	return c
}

// zaGate runs the two-phase gate over names: warm builds each cell in a
// parallel subtest, then each cell is measured alone in a subtest of the
// same name, with the threshold at exactly zero on both paths.
func zaGate(t *testing.T, names []string, warm func(t *testing.T, name string) *zaCell) {
	cells := make([]*zaCell, len(names))
	t.Run("warm", func(t *testing.T) {
		for i, name := range names {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cells[i] = warm(t, name)
			})
		}
	})
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			c := cells[i]
			if c == nil {
				t.Fatal("warm-up failed; nothing to measure")
			}
			cells[i] = nil // let the cell be collected once measured
			if c.after != nil {
				defer c.after(t)
			}
			if avg := testing.AllocsPerRun(5, c.perBranch); avg != 0 {
				t.Errorf("steady-state per-branch window replay allocated %.2f times per run, want 0", avg)
			}
			if avg := testing.AllocsPerRun(5, c.batched); avg != 0 {
				t.Errorf("steady-state RunBatch window replay allocated %.2f times per run, want 0", avg)
			}
		})
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	if slowcheckEnabled {
		t.Skip("slowcheck shadow maps allocate by design")
	}
	workloads := []string{"nodeapp", "whiskey", "tpcc"}
	if testing.Short() {
		workloads = workloads[:1]
	}
	var names []string
	for _, predName := range []string{"tsl-64k", "llbp", "llbp-x", "bullseye", "tournament"} {
		for _, wlName := range workloads {
			names = append(names, predName+"/"+wlName)
		}
	}
	zaGate(t, names, func(t *testing.T, name string) *zaCell {
		predName, wlName, _ := strings.Cut(name, "/")
		warm, window := zaStream(t, wlName, 400_000, 100_000)
		p, err := llbpx.NewPredictorByName(predName)
		if err != nil {
			t.Fatal(err)
		}
		return zaWarmCell(p, warm, window)
	})
}
