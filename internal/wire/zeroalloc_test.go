package wire

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"llbpx/internal/core"
	"llbpx/internal/serve"
)

// TestWireCodecZeroAlloc is the binary protocol's differential allocation
// gate, the same bar the prediction hot path holds: once buffers have
// warmed to capacity, encoding and decoding frames in both directions
// performs zero heap allocations per frame. This is what makes the serve
// path's steady state allocation-free end to end — any regression here
// shows up as a nonzero count, not as a slow drift in profiles.
func TestWireCodecZeroAlloc(t *testing.T) {
	branches := workloadBranches(t, "kafka", 40_000)
	if len(branches) < 1024 {
		t.Fatalf("workload too short: %d branches", len(branches))
	}
	batch := branches[:1024]
	preds := make([]core.Prediction, len(batch))
	for i := range preds {
		preds[i].Taken = i%3 != 0
		preds[i].FromSecondLevel = i%5 == 0
	}
	st := WireStats{Instructions: 9999, CondBranches: 800, Mispredicts: 41, UncondCount: 224, SecondLevelOK: 17, Batches: 3}

	// Warm every buffer to capacity first: appenders grow to the frame
	// size, the decoder's branch slice grows to the batch size.
	enc := AppendPredict(nil, 1, "zero-alloc-session", "tsl-8k", 1, batch)
	encOK := AppendPredictOK(nil, 1, 0, "tsl-8k", batch, preds, st)
	encNack := AppendNack(nil, 1, "overloaded", "no worker slot", true, 2000)
	var pr Predict
	var ok PredictOK
	var nk Nack
	r := bytes.NewReader(nil)
	readBuf := make([]byte, 0, len(enc))

	var decodeErr error
	decodeFrame := func(frame []byte, into func(payload []byte) error) {
		r.Reset(frame)
		body, nbuf, _, err := ReadFrame(r, readBuf)
		readBuf = nbuf
		if err != nil {
			decodeErr = err
			return
		}
		_, _, payload, err := ParseHeader(body)
		if err != nil {
			decodeErr = err
			return
		}
		if err := into(payload); err != nil {
			decodeErr = err
		}
	}
	// Hoisted decode closures: constructing a capturing closure inside
	// the measured function would itself count as the allocation.
	decPredict := func(p []byte) error { return DecodePredict(p, &pr, 65536) }
	decPredictOK := func(p []byte) error { return DecodePredictOK(p, &ok, 65536) }
	decNack := func(p []byte) error { return DecodeNack(p, &nk) }

	// One warm pass so pr.Branches reaches capacity.
	decodeFrame(enc, decPredict)
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"encode-predict", func() { enc = AppendPredict(enc[:0], 7, "zero-alloc-session", "tsl-8k", 9, batch) }},
		{"decode-predict", func() { decodeFrame(enc, decPredict) }},
		{"encode-predict-ok", func() { encOK = AppendPredictOK(encOK[:0], 7, FlagCreated, "tsl-8k", batch, preds, st) }},
		{"decode-predict-ok", func() { decodeFrame(encOK, decPredictOK) }},
		{"encode-nack", func() { encNack = AppendNack(encNack[:0], 7, "overloaded", "no worker slot", true, 2000) }},
		{"decode-nack", func() { decodeFrame(encNack, decNack) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
		if decodeErr != nil {
			t.Fatalf("%s: %v", tc.name, decodeErr)
		}
	}

	// The decode really decoded: spot-check round-trip integrity.
	if len(pr.Branches) != len(batch) || pr.Branches[512] != batch[512] || pr.BatchNum != 9 {
		t.Fatalf("warm decode diverged: n=%d batchNum=%d", len(pr.Branches), pr.BatchNum)
	}
	if ok.N != len(batch) || ok.Stats != st {
		t.Fatalf("warm response decode diverged: %+v", ok)
	}
}

// TestWireConnHeapFlat: a closed-loop client keeps one frame in flight,
// so its connection should keep one job's buffers grown, not Window of
// them. Over one connection, the live heap after 200 sequential
// 1024-branch batches may grow at most 0.5 MB past the heap after 2
// (Window jobs grown to this batch size would hold ~3.5 MB).
func TestWireConnHeapFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	_, _, c := testWireServer(t, serve.Config{}, Config{})
	batch := workloadBranches(t, "kafka", 40_000)[:1024]
	ctx := context.Background()
	var ok PredictOK
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var warm uint64
	for num := uint64(1); num <= 200; num++ {
		if err := c.Predict(ctx, "heap", "tsl-8k", num, batch, &ok); err != nil {
			t.Fatalf("batch %d: %v", num, err)
		}
		if num == 2 {
			warm = liveHeap()
		}
	}
	grown := int64(liveHeap()) - int64(warm)
	t.Logf("live heap %+d KB after the first 2 batches", grown>>10)
	if grown > 512<<10 {
		t.Fatalf("live heap grew %.2f MB over 198 sequential batches on one connection", float64(grown)/(1<<20))
	}
}
