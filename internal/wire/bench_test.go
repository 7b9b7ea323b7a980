package wire

import (
	"context"
	"net"
	"net/http/httptest"
	"sync"
	"testing"

	"llbpx/internal/core"
	"llbpx/internal/serve"
)

// benchBranches caches one workload stream across benchmark runs.
var benchBranches struct {
	once sync.Once
	b    []core.Branch
}

func benchWorkload(tb testing.TB) []core.Branch {
	benchBranches.once.Do(func() {
		benchBranches.b = workloadBranches(tb, "kafka", 2_000_000)
	})
	return benchBranches.b
}

// benchBimodal is a classic 64K-entry 2-bit-counter bimodal table — the
// cheapest meaningful baseline in the branch-prediction literature. It is
// registered only from this benchmark (runtime registration is part of
// the registry's contract; see TestRegisterPredictorFacade) to create a
// transport-dominant measurement cell: with prediction nearly free, the
// JSON-vs-binary ratio isolates protocol cost. The tsl-8k cell keeps the
// predictor-bound regime honest alongside it.
type benchBimodal struct{ ctr []uint8 }

func (p *benchBimodal) Name() string { return "bimodal-64k" }

func (p *benchBimodal) Predict(pc uint64) core.Prediction {
	taken := p.ctr[(pc>>2)&(1<<16-1)] >= 2
	return core.Prediction{Taken: taken, FastTaken: taken}
}

func (p *benchBimodal) Update(b core.Branch, pred core.Prediction) {
	i := (b.PC >> 2) & (1<<16 - 1)
	if b.Taken {
		if p.ctr[i] < 3 {
			p.ctr[i]++
		}
	} else if p.ctr[i] > 0 {
		p.ctr[i]--
	}
}

func (p *benchBimodal) TrackUnconditional(core.Branch) {}

var benchBimodalOnce sync.Once

func registerBenchBimodal(tb testing.TB) {
	benchBimodalOnce.Do(func() {
		err := serve.RegisterPredictor("bimodal-64k",
			"bench-only 2-bit bimodal baseline (transport-dominant cell)",
			func() (core.Predictor, error) {
				return &benchBimodal{ctr: make([]uint8, 1<<16)}, nil
			})
		if err != nil {
			tb.Fatal(err)
		}
	})
}

// BenchmarkServedThroughput measures end-to-end served branches per
// second over each protocol against the same serve.Server configuration:
// a real loopback TCP hop, a warm session, batches of 2048. Two predictor
// cells: tsl-8k (the cheapest built-in; prediction cost floors the
// protocol ratio) and bimodal-64k (near-free prediction; the ratio
// isolates transport cost). Client and server run in one process, so the
// reported "branches/s/core" divides by total process CPU, charging each
// protocol for both sides of its codec — the honest basis for a
// JSON-vs-binary comparison.
func BenchmarkServedThroughput(b *testing.B) {
	const batchSize = 2048
	branches := benchWorkload(b)
	registerBenchBimodal(b)

	for _, pred := range []string{"tsl-8k", "bimodal-64k"} {
		b.Run(pred+"/json", func(b *testing.B) {
			srv := serve.New(serve.Config{})
			hs := httptest.NewServer(srv)
			defer func() { hs.Close(); srv.Close() }()
			client := serve.NewClient(hs.URL, hs.Client())
			ctx := context.Background()
			runServedBench(b, batchSize, branches, func(batch []core.Branch) error {
				_, err := client.Predict(ctx, "bench-json", pred, batch)
				return err
			}, nil)
		})

		b.Run(pred+"/binary", func(b *testing.B) {
			srv := serve.New(serve.Config{})
			ws := NewServer(srv, Config{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			done := make(chan struct{})
			go func() { defer close(done); ws.Serve(ln) }()
			c := NewClient(ln.Addr().String())
			defer func() { c.Close(); ws.Close(); <-done; srv.Close() }()
			st := c.Stream("bench-binary", pred, StreamConfig{Window: 8})
			ctx := context.Background()
			runServedBench(b, batchSize, branches, func(batch []core.Branch) error {
				return st.Send(ctx, batch)
			}, func() error { return st.Flush(ctx) })
		})
	}
}

// runServedBench drives b.N batches (cycling through the workload)
// through send, then reports wall-clock and CPU-normalized throughput.
func runServedBench(b *testing.B, batchSize int, branches []core.Branch, send func([]core.Branch) error, flush func() error) {
	nBatches := len(branches) / batchSize
	if nBatches == 0 {
		b.Fatal("workload shorter than one batch")
	}
	// One warmup batch establishes the session outside the timer.
	if err := send(branches[:batchSize]); err != nil {
		b.Fatal(err)
	}
	cpu0 := processCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i % nBatches) * batchSize
		if err := send(branches[start : start+batchSize]); err != nil {
			b.Fatal(err)
		}
	}
	if flush != nil {
		if err := flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cpu := processCPU() - cpu0
	served := float64(b.N) * float64(batchSize)
	b.ReportMetric(served/b.Elapsed().Seconds(), "branches/s")
	if cpu > 0 {
		b.ReportMetric(served/cpu, "branches/s/core")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/served, "ns/branch")
}
