package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"llbpx/internal/serve"
	"llbpx/internal/sim"
	"llbpx/internal/stats"
)

// session is one served session as the client saw it.
type session struct {
	id      string
	s       *stream
	pos     int    // branches sent so far (the stream replays cyclically)
	batches uint64 // batches acknowledged
	last    serve.SessionStats
	fixed   serve.SessionStats // stats as of the fixed-work point, for mpki
}

// A served timed phase has a fixed-work point: mpki and the serving
// counters are read when a fixed number of timed batches has completed,
// so they repeat exactly for a seed however fast the run goes. The timed
// phase lasts until that point and at least --seconds.

// sessionMPKI aggregates the fixed-point stats of every session.
func sessionMPKI(ss []*session) float64 {
	var mis, instr uint64
	for _, s := range ss {
		mis += s.fixed.Mispredicts
		instr += s.fixed.Instructions
	}
	if instr == 0 {
		return 0
	}
	return float64(mis) / float64(instr) * 1000
}

// expected replays a session's exact branch sequence through a local
// sim.Run of the same predictor: warmup 0, like a served session's
// from-scratch statistics.
func expected(spec string, s *stream, n int) (sim.Result, error) {
	p, err := serve.NewPredictor(spec)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(p, &cycleSource{s: s, n: n}, sim.Options{MeasureInstr: math.MaxUint64})
}

// matches reports whether a served session's final statistics equal the
// local replay's, field by field.
func matches(got serve.SessionStats, batches uint64, want stats.BranchStats) bool {
	return got.Instructions == want.Instructions &&
		got.CondBranches == want.CondBranches &&
		got.Mispredicts == want.Mispredicts &&
		got.UncondCount == want.UncondCount &&
		got.SecondLevelOK == want.SecondLevelOK &&
		got.Batches == batches
}

// gate checks every session against a local sim.Run of the same stream,
// outside the timed phase. Sessions replaying the same stream for the
// same length share one replay. A session that fails the check has all
// its timed batches counted as failed. It returns the replays, keyed by
// session ID, for the simulated-count layer metrics.
func gate(res *result, spec string, ss []*session, timed map[string]int) map[string]sim.Result {
	type key struct {
		s *stream
		n int
	}
	want := map[key]sim.Result{}
	var keys []key
	for _, s := range ss {
		k := key{s.s, s.pos}
		if _, ok := want[k]; !ok {
			want[k] = sim.Result{}
			keys = append(keys, k)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan key)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				r, err := expected(spec, k.s, k.n)
				mu.Lock()
				if err != nil {
					res.fail("gate: replay %s: %v", k.s, err)
				}
				want[k] = r
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()

	out := map[string]sim.Result{}
	for _, s := range ss {
		r := want[key{s.s, s.pos}]
		out[s.id] = r
		if !matches(s.last, s.batches, r.Measured) {
			res.failed += timed[s.id]
			res.fail("gate: session %s (%s, %d branches): served %+v, local sim.Run %+v", s.id, s.s, s.pos, s.last, r.Measured)
		}
	}
	return out
}

// serverLayers reports the serving-side counters of one or more llbpd
// instances, summed.
func serverLayers(res *result, srvs ...*serve.Server) {
	var st serve.StatsSnapshot
	var attached, frozen, arena, ns int64
	for _, s := range srvs {
		x := s.Stats()
		st.Shed += x.Shed
		st.Rejected += x.Rejected
		st.StoreSpills += x.StoreSpills
		st.StoreThaws += x.StoreThaws
		st.StoreFrozenEvictions += x.StoreFrozenEvictions
		st.SnapshotSaves += x.SnapshotSaves
		st.SnapshotRestores += x.SnapshotRestores
		st.ReplicaShips += x.ReplicaShips
		st.ReplicaShipBytes += x.ReplicaShipBytes
		p := s.Store()
		attached += p.AttachedBytes()
		frozen += p.FrozenBytes()
		arena += p.ArenaBytes()
		ns += int64(p.Namespaces())
	}
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	res.layers["serve.shed"] = float64(st.Shed)
	res.layers["serve.rejected"] = float64(st.Rejected)
	res.layers["patternpool.attached_mb"] = mb(attached)
	res.layers["patternpool.frozen_mb"] = mb(frozen)
	res.layers["patternpool.arena_mb"] = mb(arena)
	res.layers["patternpool.namespaces"] = float64(ns)
	res.layers["patternpool.spills"] = float64(st.StoreSpills)
	res.layers["patternpool.thaws"] = float64(st.StoreThaws)
	res.layers["patternpool.frozen_evictions"] = float64(st.StoreFrozenEvictions)
	res.layers["snapshot.saves"] = float64(st.SnapshotSaves)
	res.layers["snapshot.restores"] = float64(st.SnapshotRestores)
	res.layers["replica.ships"] = float64(st.ReplicaShips)
	if st.ReplicaShips > 0 {
		res.layers["replica.ship_kb"] = float64(st.ReplicaShipBytes) / float64(st.ReplicaShips) / 1024
	}
}

func usOf(ds []float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d * 1000
	}
	return out
}

func sessionID(prefix string, i int) string { return fmt.Sprintf("%s-%02d", prefix, i) }
