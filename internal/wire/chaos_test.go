package wire

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/faults"
	"llbpx/internal/serve"
)

// TestWireChaosSuite is the binary path's end-to-end resilience bar: with
// deterministic faults injected at the wire's own sites (torn reads,
// dying response writes), under forced overload shedding, and across a
// full daemon restart, a retrying stream must still land the exact
// statistics of a local sim.Run. Approximate recovery is a failure —
// a single double-applied or skipped batch shifts MPKI.
func TestWireChaosSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}

	t.Run("frame faults and reconnect", func(t *testing.T) {
		const instrBudget = 150_000
		branches := workloadBranches(t, "kafka", instrBudget)
		local := localRun(t, "tsl-8k", branches, instrBudget)

		in := faults.New(7)
		in.Set(FaultRead, faults.Rule{ErrRate: 0.03})
		in.Set(FaultWrite, faults.Rule{ErrRate: 0.03})
		_, _, c := testWireServer(t, serve.Config{Faults: in}, Config{})
		c.WithRetry(serve.RetryPolicy{MaxAttempts: 12, BaseDelay: 2 * time.Millisecond, MaxDelay: 30 * time.Millisecond})

		st := c.Stream("chaos", "tsl-8k", StreamConfig{Window: 8})
		ctx := context.Background()
		for start := 0; start < len(branches); start += 512 {
			if err := st.Send(ctx, branches[start:min(start+512, len(branches))]); err != nil {
				t.Fatal(err)
			}
		}
		_, final, err := st.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		requireStats(t, final, local.Measured)

		rs, ws := in.Stats(FaultRead), in.Stats(FaultWrite)
		if rs.Errors == 0 || ws.Errors == 0 {
			t.Fatalf("faults never fired: read=%+v write=%+v", rs, ws)
		}
		if c.Reconnects() == 0 {
			t.Fatal("connection never died and redialed under injected frame faults")
		}
		if c.Retries() == 0 {
			t.Fatal("no batch was ever resent")
		}
	})

	t.Run("overload shedding", func(t *testing.T) {
		const instrBudget = 50_000
		branches := workloadBranches(t, "kafka", instrBudget)
		local := localRun(t, "tsl-8k", branches, instrBudget)

		// One worker slot, a 1ms admission window, and 2ms of injected
		// execution latency: concurrent sessions must shed, and shed
		// batches must be resent without double-applying. The test holds
		// the only slot until the first NACK is counted at both ends, so
		// shedding happens on every run rather than only when a batch
		// happens to miss the window.
		in := faults.New(11)
		in.Set(serve.FaultBatchExec, faults.Rule{Latency: 2 * time.Millisecond})
		srv, _, c := testWireServer(t,
			serve.Config{Workers: 1, AdmitTimeout: time.Millisecond, Faults: in},
			Config{})
		c.WithRetry(serve.RetryPolicy{MaxAttempts: 40, BaseDelay: 2 * time.Millisecond, MaxDelay: 30 * time.Millisecond})
		if err := srv.AcquireSlot(context.Background()); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		errs := make([]error, 3)
		finals := make([]WireStats, 3)
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				st := c.Stream("shed-"+string(rune('a'+g)), "tsl-8k", StreamConfig{Window: 4})
				ctx := context.Background()
				for start := 0; start < len(branches); start += 256 {
					if err := st.Send(ctx, branches[start:min(start+256, len(branches))]); err != nil {
						errs[g] = err
						return
					}
				}
				_, finals[g], errs[g] = st.Close(ctx)
			}(g)
		}
		for deadline := time.Now().Add(10 * time.Second); c.ShedSeen() == 0 || srv.Stats().WireNacks == 0; {
			if time.Now().After(deadline) {
				break // the assertions below report which end saw nothing
			}
			time.Sleep(100 * time.Microsecond)
		}
		srv.ReleaseSlot()
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("stream %d: %v", g, err)
			}
			requireStats(t, finals[g], local.Measured)
		}
		if c.ShedSeen() == 0 {
			t.Fatal("no overloaded NACK was ever seen")
		}
		if snap := srv.Stats(); snap.WireNacks == 0 {
			t.Fatalf("server counted no wire NACKs: %+v", snap)
		}
	})

	t.Run("restart continuity", func(t *testing.T) {
		const instrBudget = 100_000
		branches := workloadBranches(t, "nodeapp", instrBudget)
		local := localRun(t, "tsl-8k", branches, instrBudget)
		dir := t.TempDir()
		const batchSize = 512
		nBatches := (len(branches) + batchSize - 1) / batchSize
		half := nBatches / 2
		batchAt := func(i int) []core.Branch { // 1-based batch number -> slice
			start := (i - 1) * batchSize
			return branches[start:min(start+batchSize, len(branches))]
		}

		// Phase 1: stream the first half, then drain — every session
		// checkpoints, including its wire sequencing cursor.
		srv1 := serve.New(serve.Config{SnapshotDir: dir})
		ws1 := NewServer(srv1, Config{})
		ln1, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done1 := make(chan struct{})
		go func() { defer close(done1); ws1.Serve(ln1) }()
		c1 := NewClient(ln1.Addr().String())
		st1 := c1.Stream("survivor", "tsl-8k", StreamConfig{Window: 8})
		ctx := context.Background()
		for i := 1; i <= half; i++ {
			if err := st1.Send(ctx, batchAt(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st1.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		c1.Close()
		ws1.Close()
		<-done1
		srv1.Drain()

		// Phase 2: a fresh daemon over the same snapshot dir. Resume one
		// batch *early* on purpose: the resend of batch `half` must be
		// absorbed as a duplicate by the restored cursor, not re-applied.
		srv2 := serve.New(serve.Config{SnapshotDir: dir})
		ws2 := NewServer(srv2, Config{})
		ln2, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done2 := make(chan struct{})
		go func() { defer close(done2); ws2.Serve(ln2) }()
		c2 := NewClient(ln2.Addr().String())
		t.Cleanup(func() {
			c2.Close()
			ws2.Close()
			<-done2
			srv2.Close()
		})
		st2 := c2.Stream("survivor", "tsl-8k", StreamConfig{Window: 8, StartBatch: uint64(half)})
		for i := half; i <= nBatches; i++ {
			if err := st2.Send(ctx, batchAt(i)); err != nil {
				t.Fatal(err)
			}
		}
		_, final, err := st2.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		requireStats(t, final, local.Measured)
		if final.Batches != uint64(nBatches) {
			t.Fatalf("batches %d, want %d (duplicate was re-applied or a batch lost)", final.Batches, nBatches)
		}
	})
}
