package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/serve"
	"llbpx/internal/sim"
	"llbpx/internal/stats"
	"llbpx/internal/workload"
)

// testWireServer stands up a serve.Server with a wire listener on a
// loopback port and returns a connected client, tearing everything down
// with the test.
func testWireServer(t *testing.T, cfg serve.Config, wcfg Config) (*serve.Server, *Server, *Client) {
	t.Helper()
	srv := serve.New(cfg)
	ws := NewServer(srv, wcfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ws.Serve(ln)
	}()
	c := NewClient(ln.Addr().String())
	t.Cleanup(func() {
		c.Close()
		ws.Close()
		<-done
		srv.Close()
	})
	return srv, ws, c
}

// workloadBranches materializes the first instruction-budget worth of a
// preset workload's deterministic stream (mirroring sim.Run's stop rule).
func workloadBranches(t testing.TB, name string, instrBudget uint64) []core.Branch {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(prog)
	var out []core.Branch
	var instr uint64
	for instr < instrBudget {
		b, ok := gen.Next()
		if !ok {
			break
		}
		instr += b.Instructions()
		out = append(out, b)
	}
	return out
}

// localRun replays branches through a fresh predictor exactly like the
// server does, yielding the expected session statistics.
func localRun(t testing.TB, predictor string, branches []core.Branch, instrBudget uint64) sim.Result {
	t.Helper()
	p, err := serve.NewPredictor(predictor)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(p, core.NewSliceSource(branches), sim.Options{MeasureInstr: instrBudget})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireStats asserts the wire stats equal the local sim's measured
// counters bit for bit, including derived MPKI.
func requireStats(t *testing.T, got WireStats, want stats.BranchStats) {
	t.Helper()
	if got.Instructions != want.Instructions || got.CondBranches != want.CondBranches ||
		got.Mispredicts != want.Mispredicts || got.UncondCount != want.UncondCount ||
		got.SecondLevelOK != want.SecondLevelOK {
		t.Fatalf("wire stats diverge from local sim:\nwire  %+v\nlocal %+v", got, want)
	}
	gotBS := stats.BranchStats{Instructions: got.Instructions, CondBranches: got.CondBranches, Mispredicts: got.Mispredicts}
	if gotBS.MPKI() != want.MPKI() {
		t.Fatalf("wire MPKI %v != local %v", gotBS.MPKI(), want.MPKI())
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	batch := []core.Branch{
		{PC: 0x4000_1000, Kind: core.CondDirect, Target: 0x4000_1020, Taken: true, InstrGap: 3},
		{PC: 0x4000_1008, Kind: core.Call, Target: 0x4800_0000, Taken: true, InstrGap: 2},
		{PC: 0x4800_0040, Kind: core.Return, Taken: true, InstrGap: 9},
		{PC: 0x4000_1010, Kind: core.CondDirect, Target: 0x4000_0f00, Taken: false, InstrGap: 1},
		// PC going backwards exercises negative deltas.
		{PC: 0x3fff_ff00, Kind: core.CondDirect, Target: 0x4000_0000, Taken: true, InstrGap: 250},
	}
	frame := AppendPredict(nil, 42, "sess-α", "tsl-8k", 7, batch)
	body, _, n, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d of %d frame bytes", n, len(frame))
	}
	typ, seq, payload, err := ParseHeader(body)
	if err != nil || typ != FramePredict || seq != 42 {
		t.Fatalf("header: typ=%#x seq=%d err=%v", typ, seq, err)
	}
	var pr Predict
	if err := DecodePredict(payload, &pr, 1024); err != nil {
		t.Fatal(err)
	}
	if string(pr.Session) != "sess-α" || string(pr.Predictor) != "tsl-8k" || pr.BatchNum != 7 {
		t.Fatalf("identity fields: %q %q %d", pr.Session, pr.Predictor, pr.BatchNum)
	}
	if len(pr.Branches) != len(batch) {
		t.Fatalf("decoded %d branches, want %d", len(pr.Branches), len(batch))
	}
	for i := range batch {
		got, want := pr.Branches[i], batch[i]
		// Targets of non-call/jump kinds still round-trip; only compare
		// the fields the encoding promises to carry.
		if got.PC != want.PC || got.Kind != want.Kind || got.Taken != want.Taken ||
			got.InstrGap != want.InstrGap || got.Target != want.Target {
			t.Fatalf("branch %d: got %+v want %+v", i, got, want)
		}
	}

	// PredictOK round-trip.
	preds := []core.Prediction{
		{Taken: true}, {Taken: true}, {Taken: true}, {Taken: true, FromSecondLevel: true}, {Taken: false},
	}
	st := WireStats{Instructions: 1000, CondBranches: 3, Mispredicts: 2, UncondCount: 2, SecondLevelOK: 1, Batches: 4}
	frame = AppendPredictOK(frame[:0], 42, FlagCreated, "tsl-8k", batch, preds, st)
	body, _, _, err = ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	typ, seq, payload, err = ParseHeader(body)
	if err != nil || typ != FramePredictOK || seq != 42 {
		t.Fatalf("header: typ=%#x seq=%d err=%v", typ, seq, err)
	}
	var ok PredictOK
	if err := DecodePredictOK(payload, &ok, 1024); err != nil {
		t.Fatal(err)
	}
	if ok.Flags != FlagCreated || string(ok.Predictor) != "tsl-8k" || ok.N != len(batch) || ok.Stats != st {
		t.Fatalf("decoded response: %+v", ok)
	}
	for i := range batch {
		cond := batch[i].Kind.Conditional()
		if Bit(ok.Cond, i) != cond {
			t.Fatalf("branch %d: cond bit mismatch", i)
		}
		wantTaken, wantCorrect := true, true
		if cond {
			wantTaken = preds[i].Taken
			wantCorrect = preds[i].Taken == batch[i].Taken
		}
		if Bit(ok.Taken, i) != wantTaken || Bit(ok.Correct, i) != wantCorrect {
			t.Fatalf("branch %d: outcome bits taken=%v correct=%v", i, Bit(ok.Taken, i), Bit(ok.Correct, i))
		}
		if Bit(ok.Second, i) != (cond && preds[i].FromSecondLevel) {
			t.Fatalf("branch %d: second-level bit", i)
		}
	}

	// Nack round-trip.
	frame = AppendNack(frame[:0], 9, "overloaded", "no slot", true, 1500)
	body, _, _, _ = ReadFrame(bytes.NewReader(frame), nil)
	_, _, payload, _ = ParseHeader(body)
	var nk Nack
	if err := DecodeNack(payload, &nk); err != nil {
		t.Fatal(err)
	}
	if string(nk.Code) != "overloaded" || string(nk.Message) != "no slot" || !nk.Retryable || nk.RetryAfterMillis != 1500 {
		t.Fatalf("nack: %+v", nk)
	}

	// Close / CloseOK round-trip.
	frame = AppendClose(frame[:0], 3, "sess-α")
	body, _, _, _ = ReadFrame(bytes.NewReader(frame), nil)
	_, _, payload, _ = ParseHeader(body)
	var cl Close
	if err := DecodeClose(payload, &cl); err != nil || string(cl.Session) != "sess-α" {
		t.Fatalf("close: %+v err=%v", cl, err)
	}
	frame = AppendCloseOK(frame[:0], 3, "llbp-x", st)
	body, _, _, _ = ReadFrame(bytes.NewReader(frame), nil)
	_, _, payload, _ = ParseHeader(body)
	var co CloseOK
	if err := DecodeCloseOK(payload, &co); err != nil || string(co.Predictor) != "llbp-x" || co.Stats != st {
		t.Fatalf("closeok: %+v err=%v", co, err)
	}
}

// TestWirePredictOKRawRelay locks the property the gateway's wire relay
// depends on: re-encoding a decoded PredictOK with AppendPredictOKRaw
// (possibly under a new sequence number) produces a frame byte-identical
// to encoding the same response from scratch.
func TestWirePredictOKRawRelay(t *testing.T) {
	batch := []core.Branch{
		{PC: 0x4000_1000, Kind: core.CondDirect, Target: 0x4000_1020, Taken: true, InstrGap: 3},
		{PC: 0x4000_1008, Kind: core.Call, Target: 0x4800_0000, Taken: true, InstrGap: 2},
		{PC: 0x4800_0040, Kind: core.Return, Taken: true, InstrGap: 9},
		{PC: 0x4000_1010, Kind: core.CondDirect, Target: 0x4000_0f00, Taken: false, InstrGap: 1},
		{PC: 0x3fff_ff00, Kind: core.CondDirect, Target: 0x4000_0000, Taken: true, InstrGap: 250},
	}
	preds := []core.Prediction{
		{Taken: true}, {Taken: true}, {Taken: true}, {Taken: true, FromSecondLevel: true}, {Taken: false},
	}
	st := WireStats{Instructions: 1000, CondBranches: 3, Mispredicts: 2, UncondCount: 2, SecondLevelOK: 1, Batches: 4}
	want := AppendPredictOK(nil, 17, FlagCreated|FlagRestored, "tsl-8k", batch, preds, st)

	body, _, _, err := ReadFrame(bytes.NewReader(want), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, payload, err := ParseHeader(body)
	if err != nil {
		t.Fatal(err)
	}
	var ok PredictOK
	if err := DecodePredictOK(payload, &ok, 1024); err != nil {
		t.Fatal(err)
	}

	// Same seq: byte-identical to the original frame.
	got := AppendPredictOKRaw(nil, 17, ok.Flags, ok.Predictor, ok.N, ok.Cond, ok.Taken, ok.Correct, ok.Second, ok.Stats)
	if !bytes.Equal(got, want) {
		t.Fatalf("raw relay not byte-identical:\n got % x\nwant % x", got, want)
	}

	// New seq (the gateway answers with the upstream's sequence number,
	// not the downstream's): still decodes to the identical response.
	relayed := AppendPredictOKRaw(nil, 900, ok.Flags, ok.Predictor, ok.N, ok.Cond, ok.Taken, ok.Correct, ok.Second, ok.Stats)
	body, _, _, err = ReadFrame(bytes.NewReader(relayed), nil)
	if err != nil {
		t.Fatal(err)
	}
	typ, seq, payload, err := ParseHeader(body)
	if err != nil || typ != FramePredictOK || seq != 900 {
		t.Fatalf("relayed header: typ=%#x seq=%d err=%v", typ, seq, err)
	}
	var ok2 PredictOK
	if err := DecodePredictOK(payload, &ok2, 1024); err != nil {
		t.Fatal(err)
	}
	if ok2.Flags != ok.Flags || string(ok2.Predictor) != string(ok.Predictor) || ok2.N != ok.N || ok2.Stats != ok.Stats ||
		!bytes.Equal(ok2.Cond, ok.Cond) || !bytes.Equal(ok2.Taken, ok.Taken) ||
		!bytes.Equal(ok2.Correct, ok.Correct) || !bytes.Equal(ok2.Second, ok.Second) {
		t.Fatalf("relayed response diverged: %+v vs %+v", ok2, ok)
	}
}

func TestWireCorruptFrameRejected(t *testing.T) {
	frame := AppendPing(nil, 1)
	for i := 4; i < len(frame); i++ { // skip the length prefix: CRC guards the body
		bad := bytes.Clone(frame)
		bad[i] ^= 0x40
		if _, _, _, err := ReadFrame(bytes.NewReader(bad), nil); !errors.Is(err, ErrMalformed) {
			t.Fatalf("bit flip at %d: err=%v, want ErrMalformed", i, err)
		}
	}
	// Truncations after a valid length prefix are stream corruption.
	for i := 5; i < len(frame); i++ {
		if _, _, _, err := ReadFrame(bytes.NewReader(frame[:i]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: err=%v, want ErrUnexpectedEOF", i, err)
		}
	}
}

// TestWireMatchesLocalSim is the fidelity property on the binary path: a
// pipelined stream feeding the exact branch sequence of a local sim.Run
// must report identical statistics, and the per-batch outcome vectors
// must re-derive those statistics exactly.
func TestWireMatchesLocalSim(t *testing.T) {
	const instrBudget = 120_000
	branches := workloadBranches(t, "nodeapp", instrBudget)
	local := localRun(t, "tsl-8k", branches, instrBudget)

	_, _, c := testWireServer(t, serve.Config{}, Config{})
	var fromBits stats.BranchStats
	st := c.Stream("fidelity", "tsl-8k", StreamConfig{Window: 8, OnBatch: func(ok *PredictOK) {
		for i := 0; i < ok.N; i++ {
			if Bit(ok.Cond, i) {
				fromBits.CondBranches++
				if !Bit(ok.Correct, i) {
					fromBits.Mispredicts++
				}
				if Bit(ok.Second, i) && Bit(ok.Correct, i) {
					fromBits.SecondLevelOK++
				}
			} else {
				fromBits.UncondCount++
			}
		}
	}})
	ctx := context.Background()
	for start := 0; start < len(branches); start += 1024 {
		if err := st.Send(ctx, branches[start:min(start+1024, len(branches))]); err != nil {
			t.Fatal(err)
		}
	}
	pred, final, err := st.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pred != "tsl-8k" {
		t.Fatalf("predictor %q", pred)
	}
	requireStats(t, final, local.Measured)
	if fromBits.CondBranches != final.CondBranches || fromBits.Mispredicts != final.Mispredicts ||
		fromBits.UncondCount != final.UncondCount || fromBits.SecondLevelOK != final.SecondLevelOK {
		t.Fatalf("outcome bit vectors disagree with stats:\nbits  %+v\nstats %+v", fromBits, final)
	}
}

// TestWireHTTPEquivalence drives the same serve.Server over both
// protocols at once and requires identical session statistics — the
// facade property: JSON and binary are two encodings of one service.
func TestWireHTTPEquivalence(t *testing.T) {
	const instrBudget = 80_000
	branches := workloadBranches(t, "kafka", instrBudget)

	srv, _, wc := testWireServer(t, serve.Config{}, Config{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	hc := serve.NewClient(hs.URL, hs.Client())

	ctx := context.Background()
	var httpStats serve.SessionStats
	for start := 0; start < len(branches); start += 512 {
		resp, err := hc.Predict(ctx, "twin", "tsl-8k", branches[start:min(start+512, len(branches))])
		if err != nil {
			t.Fatal(err)
		}
		httpStats = resp.Stats
	}
	st := wc.Stream("twin-wire", "tsl-8k", StreamConfig{Window: 4})
	for start := 0; start < len(branches); start += 512 {
		if err := st.Send(ctx, branches[start:min(start+512, len(branches))]); err != nil {
			t.Fatal(err)
		}
	}
	_, wireStats, err := st.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wireStats.Instructions != httpStats.Instructions || wireStats.CondBranches != httpStats.CondBranches ||
		wireStats.Mispredicts != httpStats.Mispredicts || wireStats.UncondCount != httpStats.UncondCount ||
		wireStats.SecondLevelOK != httpStats.SecondLevelOK || wireStats.Batches != httpStats.Batches {
		t.Fatalf("protocols diverge:\nwire %+v\nhttp %+v", wireStats, httpStats)
	}
	// The HTTP session is still live and visible to the wire protocol —
	// one shard map serves both.
	if _, final, err := wc.CloseSession(ctx, "twin"); err != nil || final.Mispredicts != httpStats.Mispredicts {
		t.Fatalf("cross-protocol close: %+v err=%v", final, err)
	}
}

// TestWireSequencingContract exercises the exactly-once rules directly:
// duplicate batch numbers answer without re-executing, gaps NACK
// out_of_order, and batchNum 0 opts out.
func TestWireSequencingContract(t *testing.T) {
	_, _, c := testWireServer(t, serve.Config{}, Config{})
	ctx := context.Background()
	batch := workloadBranches(t, "kafka", 4_000)[:256]

	var ok PredictOK
	if err := c.Predict(ctx, "seq", "tsl-8k", 1, batch, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Flags&FlagCreated == 0 || ok.Flags&FlagDuplicate != 0 {
		t.Fatalf("first batch flags %#x", ok.Flags)
	}
	applied := ok.Stats

	// Resending batch 1 must not re-execute: same stats, duplicate flag.
	if err := c.Predict(ctx, "seq", "tsl-8k", 1, batch, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Flags&FlagDuplicate == 0 || ok.N != 0 {
		t.Fatalf("duplicate flags %#x n=%d", ok.Flags, ok.N)
	}
	if ok.Stats != applied {
		t.Fatalf("duplicate changed stats:\nbefore %+v\nafter  %+v", applied, ok.Stats)
	}

	// Skipping ahead must NACK out_of_order (retryable).
	err := c.Predict(ctx, "seq", "tsl-8k", 3, batch, &ok)
	var ne *NackError
	if !errors.As(err, &ne) || ne.Code != serve.CodeOutOfOrder || !ne.Retryable {
		t.Fatalf("gap err = %v", err)
	}

	// Filling the gap applies both.
	for _, bn := range []uint64{2, 3} {
		if err := c.Predict(ctx, "seq", "tsl-8k", bn, batch, &ok); err != nil {
			t.Fatal(err)
		}
		if ok.Flags&FlagDuplicate != 0 {
			t.Fatalf("batch %d flagged duplicate", bn)
		}
	}
	if ok.Stats.Batches != 3 {
		t.Fatalf("applied %d batches, want 3", ok.Stats.Batches)
	}

	// batchNum 0 opts out of sequencing and always applies.
	if err := c.Predict(ctx, "seq", "tsl-8k", 0, batch, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Stats.Batches != 4 {
		t.Fatalf("unsequenced batch did not apply: %+v", ok.Stats)
	}
}

func TestWireNackCodes(t *testing.T) {
	srv, _, c := testWireServer(t, serve.Config{}, Config{})
	ctx := context.Background()
	batch := workloadBranches(t, "kafka", 2_000)[:64]
	var ok PredictOK
	var ne *NackError

	if err := c.Predict(ctx, "owner", "tsl-8k", 1, batch, &ok); err != nil {
		t.Fatal(err)
	}
	// Conflicting predictor on an existing session.
	err := c.Predict(ctx, "owner", "llbp-x", 2, batch, &ok)
	if !errors.As(err, &ne) || ne.Code != serve.CodePredictorConflict || ne.Retryable {
		t.Fatalf("conflict err = %v", err)
	}
	// Unknown predictor.
	err = c.Predict(ctx, "fresh", "no-such-predictor", 1, batch, &ok)
	if !errors.As(err, &ne) || ne.Code != serve.CodeUnknownPredictor {
		t.Fatalf("unknown predictor err = %v", err)
	}
	// Empty batch is refused at the wire layer.
	err = c.Predict(ctx, "fresh", "tsl-8k", 1, nil, &ok)
	if !errors.As(err, &ne) || ne.Code != serve.CodeBadRequest {
		t.Fatalf("empty batch err = %v", err)
	}
	// Closing a session that does not exist.
	if _, _, err := c.CloseSession(ctx, "never-created"); !errors.As(err, &ne) || ne.Code != serve.CodeSessionNotFound {
		t.Fatalf("close missing err = %v", err)
	}
	// A draining server NACKs with the draining code, retryable.
	srv.Drain()
	err = c.Predict(ctx, "owner", "", 2, batch, &ok)
	if !errors.As(err, &ne) || ne.Code != serve.CodeDraining || !ne.Retryable {
		t.Fatalf("draining err = %v", err)
	}
}

func TestWirePingAndMetrics(t *testing.T) {
	srv, _, c := testWireServer(t, serve.Config{}, Config{})
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	batch := workloadBranches(t, "kafka", 2_000)[:64]
	var ok PredictOK
	if err := c.Predict(ctx, "m", "tsl-8k", 1, batch, &ok); err != nil {
		t.Fatal(err)
	}
	var ne *NackError
	if err := c.Predict(ctx, "m", "llbp-x", 2, batch, &ok); !errors.As(err, &ne) {
		t.Fatal(err)
	}
	snap := srv.Stats()
	if snap.WireConns == 0 || snap.WireFramesRx < 3 || snap.WireFramesTx < 3 ||
		snap.WireBytesRx == 0 || snap.WireBytesTx == 0 || snap.WireNacks == 0 {
		t.Fatalf("wire metrics not accounted: %+v", snap)
	}
}

// TestWireRejectsBadHandshake: a peer with the wrong magic or version is
// hung up on before any frame is read.
func TestWireRejectsBadHandshake(t *testing.T) {
	_, _, c := testWireServer(t, serve.Config{}, Config{})
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{'L', 'L', 'B', 'W', Version + 1, 0}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("expected EOF after bad preamble, got %v", err)
	}
}

// TestWireMalformedStreamDropsConn: a frame that fails CRC poisons
// framing trust, so the server drops the connection rather than answer.
func TestWireMalformedStreamDropsConn(t *testing.T) {
	_, _, c := testWireServer(t, serve.Config{}, Config{})
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(preamble[:]); err != nil {
		t.Fatal(err)
	}
	var got [6]byte
	if _, err := io.ReadFull(nc, got[:]); err != nil || got != preamble {
		t.Fatalf("handshake: % x err=%v", got[:], err)
	}
	frame := AppendPing(nil, 1)
	frame[len(frame)-1] ^= 0xFF // corrupt the CRC
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("expected EOF after corrupt frame, got %v", err)
	}
}

// TestWireDecodeNackKeepsConn: a frame that passes CRC but fails payload
// validation is NACKed per frame; the connection survives.
func TestWireDecodeNackKeepsConn(t *testing.T) {
	_, _, c := testWireServer(t, serve.Config{MaxBatch: 128}, Config{})
	ctx := context.Background()
	batch := workloadBranches(t, "kafka", 8_000)[:256] // over MaxBatch
	var ok PredictOK
	var ne *NackError
	if err := c.Predict(ctx, "big", "tsl-8k", 1, batch, &ok); !errors.As(err, &ne) || ne.Code != serve.CodeBadRequest {
		t.Fatalf("oversized batch err = %v", err)
	}
	// Same connection still serves.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("connection did not survive decode NACK: %v", err)
	}
	if c.Reconnects() != 0 {
		t.Fatalf("client redialed (%d): server dropped the conn", c.Reconnects())
	}
}
