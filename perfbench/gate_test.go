package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"llbpx/internal/core"
	"llbpx/internal/serve"
)

// TestGateCatchesPerturbedStream shows the correctness gate is not
// vacuous: a session served over the real JSON path passes against its
// own stream, and fails once one outcome in the expected copy of that
// stream is flipped.
func TestGateCatchesPerturbedStream(t *testing.T) {
	const spec, batches = "tsl-8k", 8
	s, err := generate("kafka", subSeed(7, "kafka", 0), batches*chunk, &genStats{})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{DefaultPredictor: spec})
	defer srv.Drain()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := serve.NewClient(hs.URL, hs.Client())

	ss := &session{id: "gate", s: s}
	for i := 0; i < batches; i++ {
		resp, err := c.Predict(context.Background(), ss.id, spec, s.unpack(nil, ss.pos, chunk))
		if err != nil {
			t.Fatal(err)
		}
		ss.pos += chunk
		ss.batches++
		ss.last = resp.Stats
	}
	timed := map[string]int{ss.id: batches}

	res := &result{}
	gate(res, spec, []*session{ss}, timed)
	if res.failed != 0 || len(res.problems) != 0 {
		t.Fatalf("gate rejected a correct session: failed=%d %v", res.failed, res.problems)
	}

	bad := &stream{name: s.name, seed: s.seed, bs: append([]packed(nil), s.bs...)}
	flipped := false
	for i := len(bad.bs) / 2; i < len(bad.bs) && !flipped; i++ {
		if core.BranchKind(bad.bs[i].kind).Conditional() {
			bad.bs[i].taken = !bad.bs[i].taken
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("stream has no conditional branch to flip")
	}
	ss.s = bad
	res = &result{}
	gate(res, spec, []*session{ss}, timed)
	if res.failed != batches || len(res.problems) != 1 {
		t.Fatalf("gate missed a perturbed expected stream: failed=%d problems=%v", res.failed, res.problems)
	}
}

// TestPackRoundTrip checks the packed stream format is lossless on a
// real program and rejects a branch it cannot hold.
func TestPackRoundTrip(t *testing.T) {
	s, err := generate("nodeapp", 3, 4*chunk, &genStats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.bs {
		if q, err := pack(p.branch()); err != nil || q != p {
			t.Fatalf("round trip of %+v: %+v, %v", p, q, err)
		}
	}
	if _, err := pack(core.Branch{PC: 1 << 40, Kind: core.Jump}); err == nil {
		t.Fatal("a PC above 4 GiB must not pack")
	}
}
