package main

import (
	"math"
	"reflect"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/serve"
	"llbpx/internal/sim"
)

// sim-offline: sim.Run with llbp-x over nodeapp programs (Table I's
// high-MPKI preset, heavy second level) and kafka programs (MPKI ~0.25,
// second level nearly idle). One goroutine, no network: predictor
// compute does nearly all the work and serve/wire/cluster/snapshot do
// none, so this is the workload that bypasses transport and session
// lifecycle changes.
//
// One pass runs every program once, each on a fresh predictor, so all
// passes do identical work and must produce identical results. Passes
// repeat until the timed phase is over; the run ends on a pass boundary,
// and each pass is one window.
// Program structure varies with the seed, and one program's MPKI varies
// by ~15% between seeds, so a pass holds simPrograms programs of each
// preset to keep the aggregate steady across seeds. Every program runs
// the same number of branches, so the mix of slow nodeapp and fast kafka
// branches, and with it the throughput, does not move with the seed.
const (
	simPrograms  = 12
	simPredictor = "llbp-x"
	simBranches  = 160 * chunk // branches per program
	simWarmup    = 200_000     // instructions per program before measurement; the rest is measured
	chunk        = 1024        // branches per timed batch, on every workload
)

var simPresets = []string{"nodeapp", "kafka"}

type simOffline struct {
	cfg     *runCfg
	streams []*stream
	gen     genStats
	first   []sim.Result   // pass 1, the reference for every later pass
	last    core.Predictor // kept live until the heap is measured
}

func (w *simOffline) inputs() error {
	for i := 0; i < simPrograms; i++ {
		for _, p := range simPresets {
			s, err := generate(p, subSeed(w.cfg.seed, p, i), simBranches, &w.gen)
			if err != nil {
				return err
			}
			w.streams = append(w.streams, s)
		}
	}
	return nil
}

func (w *simOffline) start() error { return nil }
func (w *simOffline) stop()        {}

func (w *simOffline) newPredictor() (core.Predictor, error) {
	p, err := serve.NewPredictor(simPredictor)
	if err != nil {
		return nil, err
	}
	if w.cfg.rec != nil {
		return timedPredictor{Predictor: p, rec: w.cfg.rec}, nil
	}
	return p, nil
}

func (w *simOffline) run(d time.Duration, res *result) error {
	t0 := time.Now()
	// The stream ends before the instruction budget: sim.Run measures
	// everything after the warm-up and reports the result as truncated.
	opt := sim.Options{WarmupInstr: simWarmup, MeasureInstr: math.MaxUint64 - simWarmup}
	for pass := 0; pass == 0 || time.Since(t0) < d; pass++ {
		for i, s := range w.streams {
			p, err := w.newPredictor()
			if err != nil {
				return err
			}
			src := &chunkSource{s: s, chunk: chunk, sample: res.batches.add}
			start := w.cfg.rec.now()
			r, err := sim.Run(p, src, opt)
			w.cfg.rec.add("sim.run", start, w.cfg.rec.now())
			if err != nil {
				return err
			}
			res.attempted += (len(s.bs) + chunk - 1) / chunk
			res.branches += int64(len(s.bs))
			w.last = p
			if pass == 0 {
				w.first = append(w.first, r)
			} else if !reflect.DeepEqual(r, w.first[i]) {
				res.failed += (len(s.bs) + chunk - 1) / chunk
				res.fail("sim-offline: pass %d of %s/%d differs from pass 1", pass+1, s.name, s.seed)
			}
		}
		res.cut()
	}
	return nil
}

func (w *simOffline) check(res *result) {
	var m sumStats
	for i, r := range w.first {
		if r.Warmup.Instructions < simWarmup || r.Measured.Instructions == 0 {
			res.fail("sim-offline: %s is too short for its warm-up", w.streams[i])
		}
		m.add(r)
	}
	res.mpki = m.measured.MPKI()
	res.info["llbpx_counts"] = m.extra
	res.info["measured"] = m.measured
	m.report(res)
}

func (w *simOffline) layers(res *result) {
	rec := w.cfg.rec
	rec.nest("predictor", "sim.run")
	var run, self time.Duration
	for _, i := range rec.byName("sim.run") {
		run += rec.spans[i].dur()
	}
	for _, s := range rec.selfTimes("sim.run", false) {
		self += s
	}
	res.layers["sim.run_ns_per_branch"] = float64(run.Nanoseconds()) / float64(res.branches)
	res.layers["sim.self_ns_per_branch"] = float64(self.Nanoseconds()) / float64(res.branches)
	res.layers["workload.gen_ns_per_branch"] = float64(w.gen.d.Nanoseconds()) / float64(w.gen.branches)
	// Two programs of each preset keep the predictor timings short while
	// holding the pass's preset mix.
	sub := w.streams[:2*len(simPresets)]
	predictorLayers(res, sub)
	snapshotLayers(res, simPredictor, sub[0])
	codecLayers(res, sub, "tsl-8k")
	res.info["trace_spans"] = len(rec.spans)
}

// sumStats aggregates sim.Run results over the programs of one pass.
type sumStats struct {
	measured statsSum
	extra    map[string]float64
	n        int
}

type statsSum struct {
	Instructions, CondBranches, Mispredicts, SecondLevelOK, Branches uint64
}

func (s statsSum) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Instructions) * 1000
}

func (m *sumStats) add(r sim.Result) {
	m.measured.Instructions += r.Measured.Instructions
	m.measured.CondBranches += r.Measured.CondBranches
	m.measured.Mispredicts += r.Measured.Mispredicts
	m.measured.SecondLevelOK += r.Measured.SecondLevelOK
	m.measured.Branches += r.Measured.CondBranches + r.Measured.UncondCount
	if m.extra == nil {
		m.extra = map[string]float64{}
	}
	for k, v := range r.Extra {
		m.extra[k] += v
	}
	m.n++
}

// report derives the simulated-count layer metrics. They repeat exactly
// for a seed, and a speed-only change must leave them untouched.
func (m *sumStats) report(res *result) {
	share := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	e := m.extra
	res.layers["llbpx.store_reads_pkb"] = share(e["llbpx.store.reads"]*1000, float64(m.measured.Branches))
	res.layers["llbpx.prefetch_ontime_share"] = share(e["llbpx.prefetch.ontime"], e["llbpx.prefetch.issued"])
	res.layers["llbpx.prefetch_unused_share"] = share(e["llbpx.prefetch.unused"], e["llbpx.prefetch.issued"])
	res.layers["llbpx.contexts_live"] = share(e["llbpx.contexts.live"], float64(m.n))
	res.layers["sim.second_level_ok_share"] = share(float64(m.measured.SecondLevelOK), float64(m.measured.CondBranches))
}
