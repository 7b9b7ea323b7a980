package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/faults"
	"llbpx/internal/replica"
	"llbpx/internal/sim"
)

// TestLifecycleWalk drives sessions through every way their state moves
// — batches, budget spills, TTL eviction to disk and the frozen tier,
// thaw, disk restore, export → import on another server, standby ship →
// promote, and drain → restart on the same directory — in a seeded
// random order, with no timers: eviction is called explicitly (the TTL
// is a nanosecond and the janitor ticks hourly). Two invariants hold
// after every step and at the end:
//
//   - a session is live in at most one server's shard map, its owner's;
//   - its final statistics equal a local sim.Run over the exact stream
//     it consumed, and it never comes back cold or behind.
//
// Batches are sequenced like the wire protocol's, so a session that came
// back with stale state shows up as an out-of-order batch at once. One
// step evicts with every checkpoint write failing: the sessions it drops
// may come back from the frozen tier at their latest state or start
// cold, but never from an older checkpoint.
func TestLifecycleWalk(t *testing.T) {
	registerTiny(t)
	var cov walkCoverage
	for _, seed := range []uint64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := newWalk(t, seed, &cov)
			for step := 0; step < 160; step++ {
				w.step()
				w.checkOwners()
			}
			w.finish()
		})
	}
	// Each transition must have happened somewhere across the seeds, or
	// the walk has stopped covering it.
	for name, n := range map[string]uint64{
		"spill": cov.spills, "disk save": cov.saves, "freeze": cov.freezes,
		"thaw": cov.thaws, "disk restore": cov.restores - min(cov.restores, cov.thaws),
		"import": cov.imports, "promote": cov.promotions, "restart": cov.restarts,
		"cold start after a failed checkpoint": cov.dropped,
	} {
		if n == 0 {
			t.Errorf("no %s across the walk's seeds", name)
		}
	}
}

// walkCoverage counts the transitions a walk exercised.
type walkCoverage struct {
	spills, saves, freezes, thaws, restores, imports, promotions, restarts, dropped uint64
}

func (c *walkCoverage) add(st StatsSnapshot) {
	c.spills += st.StoreSpills
	c.saves += st.SnapshotSaves
	c.freezes += st.StoreFreezes
	c.thaws += st.StoreThaws
	c.restores += st.SnapshotRestores
	c.promotions += st.ReplicaPromotions
}

// walkSession is the walk's model of one session: its stream, the
// stream offset after each applied batch, and who holds it.
type walkSession struct {
	id, predictor, fingerprint string
	stream                     []core.Branch
	cuts                       []int // cuts[k] = stream offset after k batches
	owner                      int
	epoch                      uint64
	standby                    int   // server holding a warm standby, or -1
	standbyCuts                []int // cuts as of the standby's ship
	shipped                    []byte
	// lost marks a session whose eviction checkpoint failed: its next
	// batch may find it cold.
	lost bool
}

func (ms *walkSession) batches() int { return len(ms.cuts) - 1 }

type walk struct {
	t        *testing.T
	rng      *rand.Rand
	cfgs     [2]Config
	servers  [2]*Server
	sessions []*walkSession
	streams  map[string][]core.Branch
	preds    []core.Prediction
	faults   [2]*faults.Injector
	cov      *walkCoverage
}

func newWalk(t *testing.T, seed uint64, cov *walkCoverage) *walk {
	w := &walk{
		t:       t,
		cov:     cov,
		rng:     rand.New(rand.NewPCG(seed, 0x11f3)),
		streams: make(map[string][]core.Branch),
		preds:   make([]core.Prediction, 512),
	}
	for i := range w.servers {
		// Server 0 keeps frozen state in its pool and has room for one
		// llbp-x session (~2.5 MB charged) beside some frozen blobs;
		// server 1 only spills to disk, and any pooled session overflows
		// its budget.
		w.faults[i] = faults.New(int64(seed))
		w.cfgs[i] = Config{
			Faults:      w.faults[i],
			SnapshotDir: t.TempDir(),
			SessionTTL:  time.Nanosecond,
			EvictEvery:  time.Hour,
			StoreBudget: []int64{4 << 20, 96 << 10}[i],
			StoreShare:  i == 0,
		}
		w.servers[i] = New(w.cfgs[i])
	}
	t.Cleanup(func() {
		for _, srv := range w.servers {
			srv.Close()
		}
	})
	return w
}

// step takes one random transition.
func (w *walk) step() {
	r := w.rng.IntN(100)
	switch {
	case r < 8 || len(w.sessions) == 0:
		w.create()
	case r < 50:
		w.batch(w.pick())
	case r < 58:
		w.servers[w.rng.IntN(2)].reclaimStore(nil)
	case r < 66:
		w.servers[w.rng.IntN(2)].EvictIdle()
	case r < 71:
		// Drop the frozen copy, so a cold session must come back from
		// its disk checkpoint.
		ms := w.pick()
		w.servers[ms.owner].Store().Forget(poolKey(ms.id))
	case r < 80:
		w.migrate(w.pick())
	case r < 88:
		w.ship(w.pick())
	case r < 94:
		w.promote(w.pick())
	case r < 97:
		w.restart(w.rng.IntN(2))
	default:
		w.failedEvict(w.rng.IntN(2))
	}
}

func (w *walk) pick() *walkSession { return w.sessions[w.rng.IntN(len(w.sessions))] }

func (w *walk) create() {
	if len(w.sessions) >= 6 {
		w.batch(w.pick())
		return
	}
	wl := []string{"nodeapp", "kafka", "whiskey", "wikipedia"}[w.rng.IntN(4)]
	stream, ok := w.streams[wl]
	if !ok {
		stream = workloadBranches(w.t, wl, 40_000)
		w.streams[wl] = stream
	}
	ms := &walkSession{
		id:          fmt.Sprintf("t%d/s%d", w.rng.IntN(2), len(w.sessions)),
		predictor:   []string{"tsl-8k", "llbp-tiny", "llbp-tiny", "llbp-x"}[w.rng.IntN(4)],
		fingerprint: wl,
		stream:      stream,
		cuts:        []int{0},
		owner:       w.rng.IntN(2),
		standby:     -1,
	}
	w.sessions = append(w.sessions, ms)
	w.batch(ms)
}

// batch sends the session's next chunk to its owner through Predict,
// the admission path both of llbpd's frontends call.
func (w *walk) batch(ms *walkSession) {
	t := w.t
	t.Helper()
	start := ms.cuts[len(ms.cuts)-1]
	if start == len(ms.stream) {
		return
	}
	srv := w.servers[ms.owner]
	n := 64 + w.rng.IntN(448)
	end := min(start+n, len(ms.stream))
	b := Batch{Session: ms.id, Predictor: ms.predictor, Fingerprint: ms.fingerprint,
		Num: uint64(ms.batches() + 1), Branches: ms.stream[start:end]}
	resp, aerr := srv.Predict(context.Background(), b, w.preds)
	if aerr != nil && aerr.Code == CodeOutOfOrder && ms.lost {
		// A session whose checkpoint failed may be back cold, at cursor
		// 0; the client then restarts its stream.
		if sess := srv.sessions.get(ms.id); sess != nil && sess.snapshot().WireCursor == 0 {
			ms.cuts = ms.cuts[:1]
			end = min(n, len(ms.stream))
			b.Num, b.Branches = 1, ms.stream[:end]
			w.cov.dropped++
			resp, aerr = srv.Predict(context.Background(), b, w.preds)
		}
	}
	if aerr != nil || resp.Duplicate {
		t.Fatalf("%s: batch %d answered %+v %v (state came back cold or behind)", ms.id, b.Num, resp.Stats, aerr)
	}
	ms.lost = false
	ms.cuts = append(ms.cuts, end)
}

// migrate moves a session to the other server as the gateway does:
// export (live or from disk), import under the session's epoch, then a
// best-effort close at the source.
func (w *walk) migrate(ms *walkSession) {
	t := w.t
	from, to := w.servers[ms.owner], w.servers[1-ms.owner]
	blob, ok := w.export(ms)
	if !ok {
		// Nothing to move: the reroute is lossless, the session starts
		// cold at its new owner.
		ms.owner = 1 - ms.owner
		return
	}
	fin, err := to.ImportSessionAt(ms.id, ms.epoch, blob)
	if err != nil {
		t.Fatalf("%s: import: %v", ms.id, err)
	}
	from.CloseSession(ms.id)
	if fin.Stats.Batches != uint64(ms.batches()) {
		t.Fatalf("%s: imported at %d batches, model has %d", ms.id, fin.Stats.Batches, ms.batches())
	}
	// The import raised the target's fence: a late ship from an older
	// line of history bounces there too.
	if ms.epoch > 0 {
		if err := to.InstallStandby(ms.id, replica.EncodeBlob(ms.epoch-1, blob)); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("%s: ship below the imported epoch: %v, want ErrStaleEpoch", ms.id, err)
		}
	}
	w.cov.imports++
	ms.owner = 1 - ms.owner
	if ms.standby == ms.owner {
		ms.standby = -1 // a live import supersedes the standby
	}
}

// export takes the session's checkpoint from its owner, live or on
// disk. Only a session whose eviction checkpoint failed may have none.
func (w *walk) export(ms *walkSession) ([]byte, bool) {
	blob, err := w.servers[ms.owner].ExportSession(ms.id)
	if errors.Is(err, ErrSessionNotFound) && ms.lost {
		return nil, false
	}
	if err != nil {
		w.t.Fatalf("%s: export: %v", ms.id, err)
	}
	return blob, true
}

// ship installs the session's current state as a warm standby on the
// other server.
func (w *walk) ship(ms *walkSession) bool {
	blob, ok := w.export(ms)
	if !ok {
		return false
	}
	other := 1 - ms.owner
	if err := w.servers[other].InstallStandby(ms.id, replica.EncodeBlob(ms.epoch, blob)); err != nil {
		w.t.Fatalf("%s: standby install: %v", ms.id, err)
	}
	ms.standby, ms.standbyCuts, ms.shipped = other, slices.Clone(ms.cuts), blob
	return true
}

// promote fails the session over to its standby: the primary leaves, the
// standby is promoted under a bumped epoch, and the model rewinds to the
// shipped cursor, so the batches since the ship are replayed. A late
// ship from the fenced-off line must bounce.
func (w *walk) promote(ms *walkSession) {
	t := w.t
	if ms.standby < 0 && !w.ship(ms) {
		return
	}
	w.servers[ms.owner].CloseSession(ms.id)
	ms.epoch++
	ms.owner, ms.standby = ms.standby, -1
	srv := w.servers[ms.owner]
	fin, err := srv.PromoteStandby(ms.id, ms.epoch)
	if err != nil {
		t.Fatalf("%s: promote: %v", ms.id, err)
	}
	ms.cuts, ms.lost = ms.standbyCuts, false
	if fin.Stats.Batches != uint64(ms.batches()) || fin.Stats.WireCursor != uint64(ms.batches()) {
		t.Fatalf("%s: promoted at %d batches (cursor %d), shipped at %d",
			ms.id, fin.Stats.Batches, fin.Stats.WireCursor, ms.batches())
	}
	err = srv.InstallStandby(ms.id, replica.EncodeBlob(ms.epoch-1, ms.shipped))
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("%s: late ship at a fenced epoch: %v, want ErrStaleEpoch", ms.id, err)
	}
}

// restart drains a server and starts a new one on the same directory:
// its sessions come back from their drain checkpoints, its standbys are
// gone.
func (w *walk) restart(i int) {
	t := w.t
	finals := w.servers[i].Drain()
	w.cov.add(w.servers[i].Stats())
	w.cov.restarts++
	w.servers[i] = New(w.cfgs[i])
	for _, fin := range finals {
		for _, ms := range w.sessions {
			if ms.id == fin.ID && fin.Stats.Batches != uint64(ms.batches()) {
				t.Fatalf("%s: drained at %d batches, model has %d", ms.id, fin.Stats.Batches, ms.batches())
			}
		}
	}
	for _, ms := range w.sessions {
		if ms.standby == i {
			ms.standby = -1
		}
	}
}

// failedEvict evicts every idle session of server i with each
// checkpoint write failing.
func (w *walk) failedEvict(i int) {
	w.faults[i].Set(FaultSnapshotSave, faults.Rule{ErrRate: 1})
	w.servers[i].EvictIdle()
	w.faults[i].Clear(FaultSnapshotSave)
	for _, ms := range w.sessions {
		if ms.owner == i && w.servers[i].sessions.get(ms.id) == nil {
			ms.lost = true
		}
	}
}

// checkOwners asserts no session is live anywhere but at its owner.
func (w *walk) checkOwners() {
	for _, ms := range w.sessions {
		for i, srv := range w.servers {
			if i != ms.owner && srv.sessions.get(ms.id) != nil {
				w.t.Fatalf("%s is live on server %d, but owned by server %d", ms.id, i, ms.owner)
			}
		}
	}
}

// finish brings every session back on its owner and compares its
// statistics with a local simulation of the stream it consumed.
func (w *walk) finish() {
	t := w.t
	for _, ms := range w.sessions {
		srv := w.servers[ms.owner]
		sess, created, restored, err := srv.acquireSession(ms.id, ms.predictor, ms.fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		got := sess.snapshot()
		srv.releaseSessionRef(sess)
		if created && !restored {
			if !ms.lost {
				t.Fatalf("%s came back cold at the end", ms.id)
			}
			continue // its state was dropped with the failed checkpoint
		}

		consumed := ms.stream[:ms.cuts[len(ms.cuts)-1]]
		var instr uint64
		for _, b := range consumed {
			instr += b.Instructions()
		}
		p, err := NewPredictor(ms.predictor)
		if err != nil {
			t.Fatal(err)
		}
		local, err := sim.Run(p, core.NewSliceSource(consumed), sim.Options{MeasureInstr: instr})
		if err != nil {
			t.Fatal(err)
		}
		want := local.Measured
		if got.Instructions != want.Instructions || got.CondBranches != want.CondBranches ||
			got.Mispredicts != want.Mispredicts || got.UncondCount != want.UncondCount ||
			got.SecondLevelOK != want.SecondLevelOK || got.Batches != uint64(ms.batches()) ||
			got.WireCursor != uint64(ms.batches()) {
			t.Errorf("%s (%s, %d batches) diverges from local sim:\nserver %+v\nlocal  %+v",
				ms.id, ms.predictor, ms.batches(), got, want)
		}
	}
	for _, srv := range w.servers {
		w.cov.add(srv.Stats())
	}
}
