package main

import (
	"bytes"
	"time"

	"llbpx"
	"llbpx/internal/core"
	"llbpx/internal/serve"
	"llbpx/internal/wire"
)

// layerMetrics is every per-layer metric a traced run reports, in
// README order. Each belongs to the workloads whose path has that layer;
// on a workload without it the metric reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"workload.gen_ns_per_branch", "ns"},
	{"sim.run_ns_per_branch", "ns"},
	{"sim.self_ns_per_branch", "ns"},
	{"predictor.llbp-x.ns_per_branch", "ns"},
	{"predictor.tsl-64k.ns_per_branch", "ns"},
	{"predictor.tsl-8k.ns_per_branch", "ns"},
	{"llbpx.store_reads_pkb", "count/kbr"},
	{"llbpx.prefetch_ontime_share", "share"},
	{"llbpx.prefetch_unused_share", "share"},
	{"llbpx.contexts_live", "count"},
	{"sim.second_level_ok_share", "share"},
	{"wire.predict_encode_ns_per_branch", "ns"},
	{"wire.predict_decode_ns_per_branch", "ns"},
	{"wire.reply_encode_ns_per_branch", "ns"},
	{"wire.reply_decode_ns_per_branch", "ns"},
	{"wire.bytes_per_branch", "B"},
	{"cluster.gateway_self_us_p50", "us"},
	{"cluster.gateway_self_us_p99", "us"},
	{"cluster.client_net_us_p50", "us"},
	{"serve.backend_us_p50", "us"},
	{"serve.backend_us_p99", "us"},
	{"cluster.routed_batches", "count"},
	{"cluster.forward_retries", "count"},
	{"cluster.reroutes", "count"},
	{"serve.shed", "count"},
	{"serve.rejected", "count"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p99", "ms"},
	{"serve.client_net_ms_p50", "ms"},
	{"serve.hot_batch_ms_p50", "ms"},
	{"serve.restore_batch_ms_p50", "ms"},
	{"serve.json_bytes_per_branch", "B"},
	{"patternpool.attached_mb", "MB"},
	{"patternpool.frozen_mb", "MB"},
	{"patternpool.arena_mb", "MB"},
	{"patternpool.namespaces", "count"},
	{"patternpool.spills", "count"},
	{"patternpool.thaws", "count"},
	{"patternpool.frozen_evictions", "count"},
	{"snapshot.saves", "count"},
	{"snapshot.restores", "count"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.load_ms", "ms"},
	{"snapshot.kb", "KB"},
	{"replica.ships", "count"},
	{"replica.ship_kb", "KB"},
	{"replica.install_ms_p50", "ms"},
	{"trace.branches_per_s", "1/s"},
	{"trace.batch_p50_ms", "ms"},
	{"trace.remainder_ms", "ms"},
}

// layerPredictors are timed alone on the workload's own stream. The
// llbp-x minus tsl-64k gap is the second level's cost; tsl-8k is the
// predictor wire-cluster serves.
var layerPredictors = []string{"llbp-x", "tsl-64k", "tsl-8k"}

// predictorLayers times core.RunBatch in chunk-sized batches, a fresh
// predictor per stream; unpacking stays outside the timed calls.
func predictorLayers(res *result, streams []*stream) {
	batch := make([]core.Branch, 0, chunk)
	preds := make([]core.Prediction, chunk)
	for _, spec := range layerPredictors {
		var d time.Duration
		n := 0
		for _, s := range streams {
			p, err := serve.NewPredictor(spec)
			if err != nil {
				res.fail("layers: %v", err)
				return
			}
			for pos := 0; pos < len(s.bs); pos += chunk {
				batch = s.unpack(batch, pos, min(chunk, len(s.bs)-pos))
				t0 := time.Now()
				core.RunBatch(p, batch, preds[:len(batch)])
				d += time.Since(t0)
				n += len(batch)
			}
		}
		res.layers["predictor."+spec+".ns_per_branch"] = float64(d.Nanoseconds()) / float64(n)
	}
}

// snapshotLayers warms spec on s, then times a save and a load of its
// state through the public facade (median of five each).
func snapshotLayers(res *result, spec string, s *stream) {
	p, err := serve.NewPredictor(spec)
	if err != nil {
		res.fail("layers: %v", err)
		return
	}
	batch := make([]core.Branch, 0, chunk)
	preds := make([]core.Prediction, chunk)
	for pos := 0; pos < len(s.bs); pos += chunk {
		batch = s.unpack(batch, pos, min(chunk, len(s.bs)-pos))
		core.RunBatch(p, batch, preds[:len(batch)])
	}
	var saves, loads durations
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := llbpx.SavePredictorState(&buf, spec, p); err != nil {
			res.fail("layers: save %s: %v", spec, err)
			return
		}
		saves.add(time.Since(t0))
		t0 = time.Now()
		if _, _, err := llbpx.LoadPredictorState(bytes.NewReader(buf.Bytes())); err != nil {
			res.fail("layers: load %s: %v", spec, err)
			return
		}
		loads.add(time.Since(t0))
	}
	res.layers["snapshot.save_ms"] = median(saves)
	res.layers["snapshot.load_ms"] = median(loads)
	res.layers["snapshot.kb"] = float64(buf.Len()) / 1024
}

// codecLayers times the four binary-protocol codec calls on the
// workload's own batches: up to 32 chunks per stream, with predictions
// from the served predictor.
func codecLayers(res *result, streams []*stream, spec string) {
	var batches [][]core.Branch
	var replies [][]core.Prediction
	for _, s := range streams {
		p, err := serve.NewPredictor(spec)
		if err != nil {
			res.fail("layers: %v", err)
			return
		}
		for pos := 0; pos+chunk <= len(s.bs) && pos < 32*chunk; pos += chunk {
			b := s.unpack(nil, pos, chunk)
			pr := make([]core.Prediction, chunk)
			core.RunBatch(p, b, pr)
			batches, replies = append(batches, b), append(replies, pr)
		}
	}
	const reps = 4
	n := float64(reps * len(batches) * chunk)
	var frame []byte
	var reqs, oks [][]byte
	var encReq, encOK, decReq, decOK time.Duration
	for r := 0; r < reps; r++ {
		for i, b := range batches {
			t0 := time.Now()
			frame = wire.AppendPredict(frame[:0], uint64(i), "bench-session", spec, uint64(i+1), b)
			encReq += time.Since(t0)
			if r == 0 {
				reqs = append(reqs, payload(frame))
			}
			t0 = time.Now()
			frame = wire.AppendPredictOK(frame[:0], uint64(i), 0, spec, b, replies[i], wire.WireStats{Instructions: 1})
			encOK += time.Since(t0)
			if r == 0 {
				oks = append(oks, payload(frame))
			}
		}
	}
	var pr wire.Predict
	var ok wire.PredictOK
	for r := 0; r < reps; r++ {
		for i := range reqs {
			t0 := time.Now()
			if err := wire.DecodePredict(reqs[i], &pr, chunk); err != nil {
				res.fail("layers: decode predict: %v", err)
				return
			}
			decReq += time.Since(t0)
			t0 = time.Now()
			if err := wire.DecodePredictOK(oks[i], &ok, chunk); err != nil {
				res.fail("layers: decode reply: %v", err)
				return
			}
			decOK += time.Since(t0)
		}
	}
	res.layers["wire.predict_encode_ns_per_branch"] = float64(encReq.Nanoseconds()) / n
	res.layers["wire.predict_decode_ns_per_branch"] = float64(decReq.Nanoseconds()) / n
	res.layers["wire.reply_encode_ns_per_branch"] = float64(encOK.Nanoseconds()) / n
	res.layers["wire.reply_decode_ns_per_branch"] = float64(decOK.Nanoseconds()) / n
}

// payload copies the payload out of an encoded frame: the bytes between
// the length prefix and the CRC, after the frame header.
func payload(frame []byte) []byte {
	_, _, p, err := wire.ParseHeader(frame[4 : len(frame)-4])
	if err != nil {
		panic(err) // the frame was just encoded by wire itself
	}
	return append([]byte(nil), p...)
}
