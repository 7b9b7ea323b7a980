package llbpx_test

// Benchmark harness: one benchmark per paper table/figure (each runs the
// corresponding experiment at the quick scale and reports its headline
// metric), plus micro-benchmarks for the performance-critical components.
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale reproductions are driven through cmd/experiments instead.

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"llbpx"
	"llbpx/internal/core"
)

// benchScale is the reduced effort benchmarks run at.
func benchScale() llbpx.ExperimentScale {
	sc := llbpx.QuickExperimentScale()
	sc.Workloads = []string{"nodeapp", "whiskey"}
	sc.WarmupInstr = 400_000
	sc.MeasureInstr = 600_000
	return sc
}

// reportSummaryRow parses the table's final (average/geomean) row and
// reports its numeric cells as benchmark metrics.
func reportSummaryRow(b *testing.B, res *llbpx.ExperimentResult, unit string) {
	b.Helper()
	if res.Table.NumRows() == 0 {
		return
	}
	row := res.Table.Row(res.Table.NumRows() - 1)
	headers := res.Table.Headers
	for i := 1; i < len(row) && i < len(headers); i++ {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			continue
		}
		name := strings.ReplaceAll(headers[i], " ", "-") + "-" + unit
		b.ReportMetric(v, name)
	}
}

func benchExperiment(b *testing.B, id, unit string) {
	b.Helper()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := llbpx.RunExperiment(id, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSummaryRow(b, res, unit)
		}
	}
}

// Paper artifacts ----------------------------------------------------------

func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1", "mpki") }
func BenchmarkFig1(b *testing.B)      { benchExperiment(b, "fig1", "pct") }
func BenchmarkFig4(b *testing.B)      { benchExperiment(b, "fig4", "norm") }
func BenchmarkFig5(b *testing.B)      { benchExperiment(b, "fig5", "pct") }
func BenchmarkFig6(b *testing.B)      { benchExperiment(b, "fig6", "val") }
func BenchmarkFig7(b *testing.B)      { benchExperiment(b, "fig7", "bits") }
func BenchmarkFig8(b *testing.B)      { benchExperiment(b, "fig8", "pct") }
func BenchmarkFig9(b *testing.B)      { benchExperiment(b, "fig9", "ratio") }
func BenchmarkFig12(b *testing.B)     { benchExperiment(b, "fig12", "pct") }
func BenchmarkFig13(b *testing.B)     { benchExperiment(b, "fig13", "speedup") }
func BenchmarkFig14a(b *testing.B)    { benchExperiment(b, "fig14a", "pct") }
func BenchmarkFig14b(b *testing.B)    { benchExperiment(b, "fig14b", "speedup") }
func BenchmarkFig15a(b *testing.B)    { benchExperiment(b, "fig15a", "bits-per-instr") }
func BenchmarkFig15b(b *testing.B)    { benchExperiment(b, "fig15b", "rel") }
func BenchmarkFig16a(b *testing.B)    { benchExperiment(b, "fig16a", "pct") }
func BenchmarkFig16b(b *testing.B)    { benchExperiment(b, "fig16b", "pct") }
func BenchmarkBreakdown(b *testing.B) { benchExperiment(b, "breakdown", "pct") }
func BenchmarkSensHth(b *testing.B)   { benchExperiment(b, "sens-hth", "pct") }
func BenchmarkSensCTT(b *testing.B)   { benchExperiment(b, "sens-ctt", "pct") }

// Ablation benches for the design choices DESIGN.md calls out.
func BenchmarkSweepW(b *testing.B)   { benchExperiment(b, "sweep-w", "pct") }
func BenchmarkAdapt(b *testing.B)    { benchExperiment(b, "adapt", "mpki") }
func BenchmarkSmallTSL(b *testing.B) { benchExperiment(b, "small-tsl", "speedup") }
func BenchmarkSweepD(b *testing.B)   { benchExperiment(b, "sweep-d", "pct") }
func BenchmarkAblX(b *testing.B)     { benchExperiment(b, "abl-x", "pct") }

// Micro-benchmarks -----------------------------------------------------------

// benchPredictor measures end-to-end predict+update throughput over a
// prebuilt branch stream, reporting MPKI alongside.
func benchPredictor(b *testing.B, build func() (llbpx.Predictor, error)) {
	b.Helper()
	prof, err := llbpx.WorkloadByName("nodeapp")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := llbpx.BuildProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	gen := llbpx.NewGenerator(prog)
	branches := make([]llbpx.Branch, 200_000)
	for i := range branches {
		branches[i], _ = gen.Next()
	}
	p, err := build()
	if err != nil {
		b.Fatal(err)
	}
	var mis, cond uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := branches[i%len(branches)]
		if br.Kind.Conditional() {
			pred := p.Predict(br.PC)
			if pred.Taken != br.Taken {
				mis++
			}
			cond++
			p.Update(br, pred)
		} else {
			p.TrackUnconditional(br)
		}
	}
	if cond > 0 {
		b.ReportMetric(float64(mis)/float64(cond)*100, "miss-%")
	}
}

func BenchmarkPredictorTSL64K(b *testing.B) {
	benchPredictor(b, func() (llbpx.Predictor, error) { return llbpx.NewTSL(llbpx.TSL64K()) })
}

func BenchmarkPredictorTSL512K(b *testing.B) {
	benchPredictor(b, func() (llbpx.Predictor, error) { return llbpx.NewTSL(llbpx.TSL512K()) })
}

func BenchmarkPredictorLLBP(b *testing.B) {
	benchPredictor(b, func() (llbpx.Predictor, error) { return llbpx.NewLLBP(llbpx.LLBPDefault()) })
}

func BenchmarkPredictorLLBPX(b *testing.B) {
	benchPredictor(b, func() (llbpx.Predictor, error) { return llbpx.NewLLBPX(llbpx.LLBPXDefault()) })
}

func BenchmarkWorkloadGenerator(b *testing.B) {
	prof, err := llbpx.WorkloadByName("whiskey")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := llbpx.BuildProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	gen := llbpx.NewGenerator(prog)
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		br, _ := gen.Next()
		instr += br.Instructions()
	}
	b.ReportMetric(float64(instr)/float64(b.N), "instr-per-branch")
}

func BenchmarkTraceEncode(b *testing.B) {
	prof, _ := llbpx.WorkloadByName("tpcc")
	prog, err := llbpx.BuildProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	gen := llbpx.NewGenerator(prog)
	branches := make([]llbpx.Branch, 100_000)
	for i := range branches {
		branches[i], _ = gen.Next()
	}
	var buf discard
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := llbpx.NewTraceWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		for _, br := range branches {
			if err := w.Write(br); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(branches)))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Hot path --------------------------------------------------------------------

// hotPathPredictors and hotPathWorkloads span the steady-state
// predict/update matrix.
var (
	hotPathPredictors = []string{"tsl-64k", "llbp", "llbp-x"}
	hotPathWorkloads  = []string{"nodeapp", "whiskey", "tpcc"}
)

// hotPathStream materializes ~warm+window instructions of a workload.
func hotPathStream(b *testing.B, wl string, warmInstr, windowInstr uint64) (warm, window []llbpx.Branch) {
	b.Helper()
	prof, err := llbpx.WorkloadByName(wl)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := llbpx.BuildProgram(prof)
	if err != nil {
		b.Fatal(err)
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

// BenchmarkHotPath measures steady-state per-branch predict/update cost:
// the predictor is warmed over ~400k instructions, then a fixed ~100k
// instruction window is replayed, so table/context state saturates and the
// loop exercises exactly the serving-time hot path. ns/op is ns per branch;
// run with -benchmem to see allocs per branch (0 in steady state, which CI
// asserts).
func BenchmarkHotPath(b *testing.B) {
	for _, predName := range hotPathPredictors {
		for _, wlName := range hotPathWorkloads {
			b.Run(predName+"/"+wlName, func(b *testing.B) {
				warm, window := hotPathStream(b, wlName, 400_000, 100_000)
				p, err := llbpx.NewPredictorByName(predName)
				if err != nil {
					b.Fatal(err)
				}
				drive := func(branches []llbpx.Branch) {
					for _, br := range branches {
						if br.Kind.Conditional() {
							p.Update(br, p.Predict(br.PC))
						} else {
							p.TrackUnconditional(br)
						}
					}
				}
				drive(warm)
				drive(window) // one replay pre-timer: steady-state allocations settle
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					br := window[i%len(window)]
					if br.Kind.Conditional() {
						p.Update(br, p.Predict(br.PC))
					} else {
						p.TrackUnconditional(br)
					}
				}
			})
		}
	}
}

// BenchmarkRunBatch measures the batched path sim.Run and llbpd drive:
// core.RunBatch over 1024-branch batches of a ~100k-instruction nodeapp
// window, replayed after a ~400k-instruction warm-up. One op is one batch;
// ns/branch is the per-branch cost, and allocs/op must stay 0 (CI asserts
// it).
func BenchmarkRunBatch(b *testing.B) {
	const batchLen = 1024
	for _, predName := range []string{"tsl-8k", "tsl-64k", "llbp-x"} {
		b.Run(predName, func(b *testing.B) {
			warm, window := hotPathStream(b, "nodeapp", 400_000, 100_000)
			p, err := llbpx.NewPredictorByName(predName)
			if err != nil {
				b.Fatal(err)
			}
			preds := make([]llbpx.Prediction, batchLen)
			batches := len(window) / batchLen
			run := func(k int) {
				off := (k % batches) * batchLen
				core.RunBatch(p, window[off:off+batchLen], preds)
			}
			for off := 0; off+batchLen <= len(warm); off += batchLen {
				core.RunBatch(p, warm[off:off+batchLen], preds)
			}
			for k := 0; k < batches; k++ {
				run(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLen), "ns/branch")
		})
	}
}

// Observability overhead ----------------------------------------------------

// BenchmarkObsOverhead measures what the simulator's observer hook costs
// on the hot path: "disabled" runs with Observer nil (the production
// default — one pointer test per branch), "idle" with a registered no-op
// observer (the attached-but-quiet worst case for instrumented runs).
// ns/op is ns per simulated instruction; run with -benchmem — both
// configurations must report 0 allocs/op, which CI enforces via
// TestObserverDisabledPathAllocFree.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, obs llbpx.SimObserver) {
		b.Helper()
		prof, err := llbpx.WorkloadByName("nodeapp")
		if err != nil {
			b.Fatal(err)
		}
		prog, err := llbpx.BuildProgram(prof)
		if err != nil {
			b.Fatal(err)
		}
		gen := llbpx.NewGenerator(prog)
		p, err := llbpx.NewPredictorByName("tsl-64k")
		if err != nil {
			b.Fatal(err)
		}
		// Warm tables and scratch so the timed run is steady-state.
		if _, err := llbpx.Simulate(p, gen, llbpx.SimOptions{MeasureInstr: 400_000, Observer: obs}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := llbpx.Simulate(p, gen, llbpx.SimOptions{MeasureInstr: uint64(b.N), Observer: obs}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("idle", func(b *testing.B) { run(b, &idleObserver{}) })
}

// Warm start ---------------------------------------------------------------

// warmStartMPKI drives p over branches and returns MPKI over the measured
// span.
func warmStartMPKI(p llbpx.Predictor, branches []llbpx.Branch) float64 {
	var mis, instr uint64
	for _, br := range branches {
		if br.Kind.Conditional() {
			pred := p.Predict(br.PC)
			if pred.Taken != br.Taken {
				mis++
			}
			p.Update(br, pred)
		} else {
			p.TrackUnconditional(br)
		}
		instr += br.Instructions()
	}
	if instr == 0 {
		return 0
	}
	return float64(mis) / float64(instr) * 1000
}

// BenchmarkWarmStart measures what checkpointing buys at deployment time
// for LLBP-X: the timed loop is one full snapshot restore (decode +
// reconstruct), and the reported metrics compare a cold predictor's MPKI
// over its first ~1M branches-worth of instructions against a
// snapshot-restored one's over the same stream.
func BenchmarkWarmStart(b *testing.B) {
	const (
		warmInstr  = 400_000
		firstInstr = 1_000_000
	)
	prof, err := llbpx.WorkloadByName("nodeapp")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := llbpx.BuildProgram(prof)
	if err != nil {
		b.Fatal(err)
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
	warm, first := take(warmInstr), take(firstInstr)

	// Train once, snapshot once.
	trained, err := llbpx.NewPredictorByName("llbp-x")
	if err != nil {
		b.Fatal(err)
	}
	warmStartMPKI(trained, warm)
	var buf bytes.Buffer
	if err := llbpx.SavePredictorState(&buf, "llbp-x", trained); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	// Cold baseline: fresh predictor straight into the measured span.
	coldStart := time.Now()
	cold, err := llbpx.NewPredictorByName("llbp-x")
	if err != nil {
		b.Fatal(err)
	}
	coldBuildNs := float64(time.Since(coldStart).Nanoseconds())
	coldMPKI := warmStartMPKI(cold, first)

	// Warm path: restore from the snapshot, then the same measured span.
	restored, _, err := llbpx.LoadPredictorState(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	warmMPKI := warmStartMPKI(restored, first)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := llbpx.LoadPredictorState(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.SetBytes(int64(len(data)))
	b.ReportMetric(coldBuildNs, "cold-build-ns")
	b.ReportMetric(coldMPKI, "cold-mpki-1m")
	b.ReportMetric(warmMPKI, "warm-mpki-1m")
}
