package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"llbpx/internal/core"
	"llbpx/internal/workload"
)

// jsonBatch returns the first n branches of a preset workload's stream.
func jsonBatch(tb testing.TB, preset string, n int) []core.Branch {
	tb.Helper()
	prof, err := workload.ByName(preset)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := workload.Build(prof)
	if err != nil {
		tb.Fatal(err)
	}
	gen := workload.NewGenerator(prog)
	out := make([]core.Branch, 0, n)
	for len(out) < n {
		b, ok := gen.Next()
		if !ok {
			tb.Fatalf("%s: stream ended after %d branches", preset, len(out))
		}
		out = append(out, b)
	}
	return out
}

// jsonPredictions is a reply vector for batch with every flag in play.
func jsonPredictions(batch []core.Branch) []BranchPrediction {
	preds := make([]BranchPrediction, len(batch))
	for i, b := range batch {
		if b.Kind.Conditional() {
			preds[i] = BranchPrediction{Cond: true, Taken: i%3 != 0, Correct: i%7 != 0, SecondLevel: i%5 == 0}
		} else {
			preds[i] = BranchPrediction{Taken: true, Correct: true}
		}
	}
	return preds
}

// marshalRequest is the request body encoding/json produces, the way the
// client built it before the codec: records converted one by one.
func marshalRequest(t *testing.T, predictor, fingerprint string, batch []core.Branch) []byte {
	t.Helper()
	recs := make([]BranchRecord, len(batch))
	for i, b := range batch {
		recs[i] = RecordFromBranch(b)
	}
	body, err := json.Marshal(PredictRequest{Predictor: predictor, WorkloadFingerprint: fingerprint, Branches: recs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// encodeResponse is what json.NewEncoder(w).Encode(r) writes.
func encodeResponse(t *testing.T, r *PredictResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPredictJSONBytesIdentical pins both encoders to encoding/json byte
// for byte over randomized batches — every branch kind, zero and
// non-zero target and gap, extreme values, every reply flag, and strings
// that need HTML and line-separator escaping — so the bytes on the wire
// (and serve.json_bytes_per_branch) are those encoding/json wrote.
func TestPredictJSONBytesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	strs := []string{"", "llbp-x", "tsl-64k", "a<b>&c", `say "hi"\`, "line\u2028sep\u2029", "tab\tnl\n", "caf\u00e9", "bad\xffutf8", "del\x7f"}
	floats := []float64{0, 1, 0.5, 3.25, 1e-7, 9.999e-7, 1e-6, 123456.789, 1e20, 1e21, 2.5e22, math.SmallestNonzeroFloat64, math.MaxFloat64, -1e-9}
	u64 := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64
		default:
			return rng.Uint64() >> rng.Intn(64)
		}
	}
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(40)
		batch := make([]core.Branch, n)
		for i := range batch {
			batch[i] = core.Branch{
				PC:     u64(),
				Target: u64(),
				Kind:   core.BranchKind(rng.Intn(5)),
				Taken:  rng.Intn(2) == 0,
			}
			if rng.Intn(4) != 0 {
				batch[i].InstrGap = uint32(u64())
			}
		}
		if iter == 0 {
			batch = append(batch, core.Branch{Kind: 255, InstrGap: math.MaxUint32})
		}
		pred, fp := strs[rng.Intn(len(strs))], strs[rng.Intn(len(strs))]
		want := marshalRequest(t, pred, fp, batch)
		if got := AppendPredictRequest(nil, pred, fp, batch); !bytes.Equal(got, want) {
			t.Fatalf("request %d:\n got %s\nwant %s", iter, got, want)
		}

		preds := make([]BranchPrediction, n)
		for i := range preds {
			preds[i] = BranchPrediction{Cond: rng.Intn(2) == 0, Taken: rng.Intn(2) == 0, Correct: rng.Intn(2) == 0, SecondLevel: rng.Intn(2) == 0}
		}
		if rng.Intn(8) == 0 {
			preds = nil // a duplicate reply carries none
		}
		resp := PredictResponse{
			Session:     strs[rng.Intn(len(strs))],
			Predictor:   strs[rng.Intn(len(strs))],
			Created:     rng.Intn(2) == 0,
			Restored:    rng.Intn(2) == 0,
			Duplicate:   rng.Intn(2) == 0,
			Predictions: preds,
			Stats: SessionStats{
				Instructions: u64(), CondBranches: u64(), Mispredicts: u64(), UncondCount: u64(),
				SecondLevelOK: u64(), Batches: u64(), WireCursor: u64(),
				MPKI:     floats[rng.Intn(len(floats))],
				Accuracy: floats[rng.Intn(len(floats))] * float64(rng.Intn(3)-1),
			},
		}
		got, err := AppendPredictResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeResponse(t, &resp); !bytes.Equal(got, want) {
			t.Fatalf("response %d:\n got %s\nwant %s", iter, got, want)
		}
	}

	// A non-finite statistic fails like the Encoder does.
	if _, err := AppendPredictResponse(nil, &PredictResponse{Stats: SessionStats{MPKI: math.NaN()}}); err == nil {
		t.Fatal("NaN MPKI encoded")
	}
}

// TestPredictJSONFastPath checks the scanners actually take what JSON
// encoders emit — this codec's own output, and encoding/json's indented
// form with its whitespace — so the fallback is the exception.
func TestPredictJSONFastPath(t *testing.T) {
	batch := jsonBatch(t, "nodeapp", 256)
	resp := PredictResponse{Session: "s-1", Predictor: "llbp-x", Created: true, Predictions: jsonPredictions(batch),
		Stats: SessionStats{Instructions: 5000, CondBranches: 200, Mispredicts: 9, MPKI: 1.8, Accuracy: 0.955, WireCursor: 3}}
	compact, _ := AppendPredictResponse(nil, &resp)
	indented, _ := json.MarshalIndent(resp, "", "  ")
	for name, body := range map[string][]byte{"compact": compact, "indented": indented} {
		var got PredictResponse
		if !scanPredictResponse(body, &got) {
			t.Errorf("%s response fell back to encoding/json", name)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("%s response decoded to %+v", name, got)
		}
	}

	// Their canonical-layout shortcuts take every record this codec
	// (and encoding/json) writes.
	for i, enc := range predictionJSON {
		var p BranchPrediction
		if s := (jsonScan{b: enc}); !s.canonicalPrediction(&p) || p != predictionAt(i) || s.i != len(enc) {
			t.Errorf("canonical prediction %s not taken", enc)
		}
	}
	for _, b := range append(batch, core.Branch{PC: math.MaxUint64, Kind: 255, InstrGap: math.MaxUint32}) {
		var got core.Branch
		enc := AppendPredictRequest(nil, "", "", []core.Branch{b})
		enc = enc[len(`{"branches":[`) : len(enc)-len("]}")]
		if s := (jsonScan{b: enc}); !s.canonicalBranch(&got) || got != b || s.i != len(enc) {
			t.Fatalf("canonical record %s not taken", enc)
		}
	}

	reqCompact := AppendPredictRequest(nil, "llbp-x", "fp", batch)
	var req PredictRequest
	if err := json.Unmarshal(reqCompact, &req); err != nil {
		t.Fatal(err)
	}
	reqIndented, _ := json.MarshalIndent(req, "", "\t")
	for name, body := range map[string][]byte{"compact": reqCompact, "indented": reqIndented} {
		var c PredictCall
		if !c.scan(body) {
			t.Errorf("%s request fell back to encoding/json", name)
		}
		if c.Predictor != "llbp-x" || c.WorkloadFingerprint != "fp" || !reflect.DeepEqual(c.Branches, batch) {
			t.Errorf("%s request decoded wrong", name)
		}
	}
}

// checkRequestDecode holds the request decoder to json.Decoder on data:
// same accept/reject verdict, same error text, same batch.
func checkRequestDecode(t *testing.T, data []byte) {
	var want PredictRequest
	werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	// A target that already held another request must not leak it.
	got := PredictCall{Predictor: "stale", WorkloadFingerprint: "stale", Branches: []core.Branch{{PC: 99, Kind: core.Return}}}
	gerr := got.decode(data)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("request %q: error %v, encoding/json %v", data, gerr, werr)
	}
	if werr != nil {
		return
	}
	ok := got.Predictor == want.Predictor && got.WorkloadFingerprint == want.WorkloadFingerprint &&
		len(got.Branches) == len(want.Branches)
	for i := 0; ok && i < len(want.Branches); i++ {
		ok = got.Branches[i] == want.Branches[i].ToBranch()
	}
	if !ok {
		t.Fatalf("request %q: decoded %+v, encoding/json %+v", data, got, want)
	}
}

// checkResponseDecode is checkRequestDecode for replies.
func checkResponseDecode(t *testing.T, data []byte) {
	var want PredictResponse
	werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	got := PredictResponse{Session: "stale", Created: true, Predictions: make([]BranchPrediction, 3, 8), Stats: SessionStats{MPKI: 1}}
	gerr := decodePredictResponse(data, &got)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("response %q: error %v, encoding/json %v", data, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("response %q: decoded %+v, encoding/json %+v", data, got, want)
	}
}

// FuzzPredictJSON is the decoders' differential fuzz: on any body, the
// request and reply decoders must reach json.Decoder's verdict and value.
func FuzzPredictJSON(f *testing.F) {
	batch := []core.Branch{
		{PC: 0x401000, Kind: core.CondDirect, Taken: true, InstrGap: 3},
		{PC: 0x401010, Target: 0x402000, Kind: core.Call, Taken: true, InstrGap: 1},
		{PC: 0x402040, Kind: core.Return, Taken: true},
		{PC: math.MaxUint64, Target: math.MaxUint64, Kind: core.IndirectJump, InstrGap: math.MaxUint32},
	}
	req := AppendPredictRequest(nil, "llbp-x", "fp<&>", batch)
	resp, _ := AppendPredictResponse(nil, &PredictResponse{
		Session: "s", Predictor: "llbp-x", Created: true, Restored: true,
		Predictions: jsonPredictions(batch),
		Stats:       SessionStats{Instructions: 7, CondBranches: 1, Mispredicts: 1, MPKI: 142.857, Accuracy: 1e-7, WireCursor: 2},
	})
	for _, seed := range []string{
		string(req),
		string(resp),
		string(req) + "trailing garbage",
		string(resp) + `{"session":"second value"}`,
		`{"PC":1}`,
		`{"branches":[{"PC":5,"kind":0,"taken":true}]}`,
		`{"Predictor":"tsl-8k","branches":[{"pc":1,"kind":0}]}`,
		`{"branches":[{"pc":1,"pc":2,"kind":0}]}`,
		`{"branches":[{"pc":1,"gap":5}],"branches":[{"pc":2}]}`,
		`{"session":"a","session":"b","predictions":[]}`,
		`{"predictor":null,"branches":null}`,
		`{"branches":[null]}`,
		`{"predictions":null,"stats":null}`,
		`null`,
		`{"predictor":"tsl\u002d8k","branches":[{"pc":1,"kind":0}]}`,
		`{"session":"a\"b","predictor":"\u2028"}`,
		`{"branches":[{"pc":1e3,"kind":0}]}`,
		`{"branches":[{"pc":-1,"kind":0}]}`,
		`{"branches":[{"pc":01,"kind":0}]}`,
		`{"branches":[{"pc":18446744073709551615,"kind":0}]}`,
		`{"branches":[{"pc":18446744073709551616,"kind":0}]}`,
		`{"branches":[{"pc":1,"kind":256,"gap":4294967296}]}`,
		`{"stats":{"mpki":1e3,"accuracy":-0.5e-7,"batches":01}}`,
		`{"stats":{"mpki":1e400}}`,
		` { "predictions" : [ { "cond" : true } ] } `,
		`{"predictions":[{"cond":true,"taken":true,"correct":true,"second_level":false}]}`,
		"{}", "[]", "", `{"branches":[{}]}`, `{"branches":[{"pc":1,}]}`, `{"branches":[{"taken":truex}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestDecode(t, data)
		checkResponseDecode(t, data)
	})
}

// TestPredictJSONZeroAlloc is the JSON predict path's allocation gate, in
// the style of TestWireCodecZeroAlloc: once buffers have warmed to
// capacity, encoding and decoding a 1024-branch request and reply
// performs zero heap allocations. Decoding allocation-free also proves
// the fast scanners, not encoding/json, handled the bodies.
func TestPredictJSONZeroAlloc(t *testing.T) {
	batch := jsonBatch(t, "kafka", 1024)
	resp := PredictResponse{
		Session: "zero-alloc-session", Predictor: "llbp-x", Created: true,
		Predictions: jsonPredictions(batch),
		Stats:       SessionStats{Instructions: 9999, CondBranches: 800, Mispredicts: 41, UncondCount: 224, Batches: 3, MPKI: 4.1004, Accuracy: 0.948},
	}
	reqBody := AppendPredictRequest(nil, "llbp-x", "kafka", batch)
	respBody, err := AppendPredictResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	var call PredictCall
	var dec PredictResponse
	var decodeErr error
	// One warm pass so every buffer reaches capacity.
	if err := call.decode(reqBody); err != nil {
		t.Fatal(err)
	}
	if err := decodePredictResponse(respBody, &dec); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"encode-request", func() { reqBody = AppendPredictRequest(reqBody[:0], "llbp-x", "kafka", batch) }},
		{"decode-request", func() { decodeErr = call.decode(reqBody) }},
		{"encode-response", func() { respBody, decodeErr = AppendPredictResponse(respBody[:0], &resp) }},
		{"decode-response", func() { decodeErr = decodePredictResponse(respBody, &dec) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
		if decodeErr != nil {
			t.Fatalf("%s: %v", tc.name, decodeErr)
		}
	}

	if call.Predictor != "llbp-x" || call.WorkloadFingerprint != "kafka" || !reflect.DeepEqual(call.Branches, batch) {
		t.Fatal("warm request decode diverged")
	}
	if !reflect.DeepEqual(dec, resp) {
		t.Fatal("warm response decode diverged")
	}
}

// BenchmarkPredictJSON measures the four predict-path conversions of one
// 1024-branch nodeapp batch, next to encoding/json doing the same work
// the way the serving path did before this codec.
func BenchmarkPredictJSON(b *testing.B) {
	batch := jsonBatch(b, "nodeapp", 1024)
	resp := PredictResponse{
		Session: "bench-session", Predictor: "llbp-x", Predictions: jsonPredictions(batch),
		Stats: SessionStats{Instructions: 1 << 30, CondBranches: 1 << 27, Mispredicts: 1 << 20, Batches: 5000, MPKI: 0.9765625, Accuracy: 0.9921875},
	}
	reqBody := AppendPredictRequest(nil, "llbp-x", "", batch)
	respBody, _ := AppendPredictResponse(nil, &resp)
	var call PredictCall
	var dec PredictResponse
	recs := make([]BranchRecord, len(batch))

	run := func(name string, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/branch")
		})
	}
	run("encode-request", func() { reqBody = AppendPredictRequest(reqBody[:0], "llbp-x", "", batch) })
	run("decode-request", func() { _ = call.decode(reqBody) })
	run("encode-response", func() { respBody, _ = AppendPredictResponse(respBody[:0], &resp) })
	run("decode-response", func() { _ = decodePredictResponse(respBody, &dec) })

	run("encoding-json/encode-request", func() {
		for i, br := range batch {
			recs[i] = RecordFromBranch(br)
		}
		_, _ = json.Marshal(PredictRequest{Predictor: "llbp-x", Branches: recs})
	})
	run("encoding-json/decode-request", func() {
		var req PredictRequest
		_ = json.NewDecoder(bytes.NewReader(reqBody)).Decode(&req)
	})
	run("encoding-json/encode-response", func() { _ = json.NewEncoder(&bytes.Buffer{}).Encode(&resp) })
	run("encoding-json/decode-response", func() {
		var out PredictResponse
		_ = json.NewDecoder(bytes.NewReader(respBody)).Decode(&out)
	})
}
