package llbpx_test

// Shared pattern-pool differential suite: the bit-exactness bar of the
// memory-budgeted last-level store. Pooling only changes where a
// predictor's second-level storage comes from (recycled arena slabs,
// byte-accounted against a global budget) — never what it predicts. These
// tests drive pool-attached predictors over the same recorded streams as
// TestGoldenFingerprints and demand the identical golden hashes, first
// with every workload resident concurrently under one budget, then with a
// budget small enough that sessions run on each other's recycled slabs.
// Under `-tags slowcheck`, per-pattern-set provenance stamps additionally
// panic on any cross-namespace read.

import (
	"testing"

	"llbpx"
	"llbpx/internal/patternpool"
)

// poolPredictors are the registry predictors whose second level can be
// pool-backed (they implement patternpool.Attacher).
var poolPredictors = []string{"llbp", "llbp-0lat", "llbp-x", "bullseye", "tournament"}

// attachPooled builds predName attached to a fresh namespace in pool.
func attachPooled(t *testing.T, pool *patternpool.Pool, predName, tenant, cid, fp string) (llbpx.Predictor, *patternpool.Namespace) {
	t.Helper()
	p, err := llbpx.NewPredictorByName(predName)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := p.(patternpool.Attacher)
	if !ok {
		t.Fatalf("predictor %q does not implement patternpool.Attacher", predName)
	}
	ns := pool.Attach(patternpool.Key{Tenant: tenant, CID: cid}, fp)
	a.AttachPatternPool(ns)
	return p, ns
}

func releasePooled(pool *patternpool.Pool, p llbpx.Predictor, ns *patternpool.Namespace) {
	p.(patternpool.Releaser).ReleasePatternStore()
	pool.Detach(ns)
}

// TestGoldenFingerprintsSharedStore runs every pool-backed predictor over
// every workload concurrently, all namespaces attached to ONE shared pool
// under one budget, and asserts each cell's direction stream is
// bit-identical to testdata/fingerprints.json — i.e. a predictor cannot
// tell pooled storage from private storage, even while dozens of other
// namespaces charge, materialize, and release against the same pool.
func TestGoldenFingerprintsSharedStore(t *testing.T) {
	golden := loadFingerprints(t)
	// A budget big enough that nothing is forced out mid-run: the bar here
	// is concurrent-residency equivalence; eviction-pressure recycling is
	// TestSharedStoreIsolation's job.
	pool := patternpool.New(patternpool.Config{Budget: 1 << 30, Sharing: true, Shards: 8})

	for _, predName := range poolPredictors {
		for _, wlName := range llbpx.WorkloadNames() {
			if testing.Short() && !(fpShortPredictors[predName] && fpShortWorkloads[wlName]) {
				continue
			}
			predName, wlName := predName, wlName
			key := predName + "/" + wlName
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				st := rtStreams()[wlName]
				if st == nil {
					t.Fatalf("no stream for workload %q", wlName)
				}
				p, ns := attachPooled(t, pool, predName, "golden", key, wlName)
				defer releasePooled(pool, p, ns)
				got := fpDrive(p, st)
				want, ok := golden[key]
				if !ok {
					t.Fatalf("no golden fingerprint for %s", key)
				}
				if got != want {
					t.Errorf("pooled prediction stream diverged from golden:\n got %+v\nwant %+v", got, want)
				}
				if ns.Bytes() <= 0 {
					t.Errorf("namespace charged %d bytes after full drive, want > 0", ns.Bytes())
				}
			})
		}
	}
}

// TestSharedStoreIsolation is the differential isolation bar: sessions
// with DIFFERENT workload fingerprints, run back to back on a pool small
// enough that every later session materializes onto the earlier sessions'
// recycled slabs, must still reproduce their golden streams exactly — no
// session ever observes a pattern another session inserted. With
// `-tags slowcheck` the per-set provenance stamps turn any such leak into
// a panic naming both namespaces, independent of the hash check.
func TestSharedStoreIsolation(t *testing.T) {
	golden := loadFingerprints(t)
	workloads := llbpx.WorkloadNames()
	predictors := poolPredictors
	if testing.Short() {
		workloads = workloads[:4]
		predictors = []string{"llbp", "llbp-x"}
	}
	// 32MB budget → 8MB slab arena: room for several released
	// directories (a released directory holds the rows it used, well
	// under its 2.5MB nominal charge), so each session's storage is
	// recycled into a successor instead of being dropped — exactly the
	// reuse path a leak would travel.
	pool := patternpool.New(patternpool.Config{Budget: 32 << 20, Sharing: true, Shards: 2})

	recycled := 0
	for _, predName := range predictors {
		for i, wlName := range workloads {
			key := predName + "/" + wlName
			st := rtStreams()[wlName]
			if st == nil {
				t.Fatalf("no stream for workload %q", wlName)
			}
			before := pool.ArenaBytes()
			p, ns := attachPooled(t, pool, predName, "iso", key, wlName)
			got := fpDrive(p, st)
			if i > 0 && pool.ArenaBytes() < before {
				// Materializing drained the arena: this session runs on a
				// predecessor's recycled slabs.
				recycled++
			}
			if want := golden[key]; got != want {
				t.Errorf("%s: stream diverged on recycled storage:\n got %+v\nwant %+v", key, got, want)
			}
			releasePooled(pool, p, ns)
		}
	}
	if recycled == 0 {
		t.Fatal("no session ever reused recycled slabs — the isolation run exercised nothing")
	}
	if pool.AttachedBytes() != 0 || pool.Namespaces() != 0 {
		t.Errorf("pool not drained after all releases: attached=%d namespaces=%d",
			pool.AttachedBytes(), pool.Namespaces())
	}
}

// TestHotPathZeroAllocPooled is TestHotPathZeroAlloc for pool-backed
// predictors: once a pooled session has warmed up, steady-state
// predict/update must not allocate — the pool's byte accounting is pure
// atomics and slab charging only happens at materialization.
func TestHotPathZeroAllocPooled(t *testing.T) {
	if slowcheckEnabled {
		t.Skip("slowcheck shadow maps allocate by design")
	}
	pool := patternpool.New(patternpool.Config{Budget: 1 << 30, Sharing: true})
	zaGate(t, []string{"llbp", "llbp-x"}, func(t *testing.T, predName string) *zaCell {
		warm, window := zaStream(t, "nodeapp", 400_000, 100_000)
		p, ns := attachPooled(t, pool, predName, "za", predName, "nodeapp")
		c := zaWarmCell(p, warm, window)
		c.after = func(t *testing.T) {
			// The namespace still carries the warm-up's charge only if the
			// measured runs replayed the pooled store, not a private one.
			if ns.Bytes() <= 0 {
				t.Errorf("namespace charged %d bytes after measurement, want > 0", ns.Bytes())
			}
			releasePooled(pool, p, ns)
		}
		return c
	})
}
