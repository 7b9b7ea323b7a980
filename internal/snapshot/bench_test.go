package snapshot_test

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"

	"llbpx"
)

// benchBranches is a longer nodeapp stream than the fuzz seeds use, so the
// benchmarked blobs carry a realistically populated second level.
var benchBranches = sync.OnceValue(func() []llbpx.Branch {
	prof, err := llbpx.WorkloadByName("nodeapp")
	if err != nil {
		panic(err)
	}
	prog, err := llbpx.BuildProgram(prof)
	if err != nil {
		panic(err)
	}
	gen := llbpx.NewGenerator(prog)
	out := make([]llbpx.Branch, 200_000)
	for i := range out {
		out[i], _ = gen.Next()
	}
	return out
})

// warmPredictor builds the named predictor and trains it on benchBranches.
func warmPredictor(tb testing.TB, name string) llbpx.Predictor {
	tb.Helper()
	p, err := llbpx.NewPredictorByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	bs := benchBranches()
	drive(p, bs, len(bs))
	return p
}

// BenchmarkSnapshotCodec times saving a warm predictor's state to
// io.Discard and loading it back from memory, for the served predictors:
// MB/s is blob bytes per second, B/op and allocs/op are the codec's own
// plus, for load, the cold predictor it fills.
func BenchmarkSnapshotCodec(b *testing.B) {
	for _, name := range []string{"llbp-x", "tsl-64k", "tsl-8k"} {
		p := warmPredictor(b, name)
		var buf bytes.Buffer
		if err := llbpx.SavePredictorState(&buf, name, p); err != nil {
			b.Fatal(err)
		}
		blob := buf.Bytes()
		b.Run(name+"/save", func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := llbpx.SavePredictorState(io.Discard, name, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/load", func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := llbpx.LoadPredictorState(bytes.NewReader(blob)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotSaveAllocGate holds Save's own footprint: saving a warm
// llbp-x to io.Discard encodes into a recycled buffer, so what remains
// per save is the predictor's own SaveState scratch — under 1 KB and at
// most the 8 allocations the buffered stream writer used to make.
func TestSnapshotSaveAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled buffers at random")
	}
	p := warmPredictor(t, "llbp-x")
	save := func() {
		if err := llbpx.SavePredictorState(io.Discard, "llbp-x", p); err != nil {
			t.Fatal(err)
		}
	}
	save() // size the recycled buffer
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, save); allocs > 8 {
		t.Errorf("save of a warm llbp-x: %.1f allocs/op, want <= 8", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		save()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 1024 {
		t.Errorf("save of a warm llbp-x: %d B/op, want < 1024", perOp)
	}
}

// TestSnapshotLoadAllocGate holds a restore's footprint: loading the warm
// llbp-x blob BenchmarkSnapshotCodec loads builds a cold predictor and
// fills it, and the context directory materializes only the rows the
// blob holds, so a load stays under 1 MB. A directory that allocated its
// whole nominal geometry again (~2.5 MB) would fail here.
func TestSnapshotLoadAllocGate(t *testing.T) {
	p := warmPredictor(t, "llbp-x")
	var buf bytes.Buffer
	if err := llbpx.SavePredictorState(&buf, "llbp-x", p); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	load := func() {
		if _, _, err := llbpx.LoadPredictorState(bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
	}
	load()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 1<<20 {
		t.Errorf("load of a warm llbp-x: %d B/op, want <= 1 MB", perOp)
	}
}
