package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/llbp"
	"llbpx/internal/sim"
	"llbpx/internal/tage"
)

// Shared pattern-pool serving tests: per-tenant accounting through real
// traffic, and the budget acceptance bar — many more sessions than the
// budget holds, every one of which must still report statistics
// bit-identical to a local simulation of its stream after being spilled
// (checkpoint + freeze), evicted, and thawed arbitrary numbers of times.

// tinyOnce registers "llbp-tiny": a miniature LLBP (1/32 the contexts,
// 8KB TAGE) whose pooled directory is a few tens of KB, so budget tests
// can churn ~1k sessions in test time.
var tinyOnce sync.Once

func registerTiny(t *testing.T) {
	t.Helper()
	tinyOnce.Do(func() {
		cfg := llbp.Default()
		cfg.Name = "llbp-tiny"
		cfg.NumContexts = 448
		cfg.PBEntries = 16
		cfg.TSL = tage.Config8K()
		if err := RegisterPredictor("llbp-tiny", "miniature LLBP for store tests",
			func() (core.Predictor, error) { return llbp.New(cfg) }); err != nil {
			panic(err)
		}
	})
}

// TestStoreTenantAccounting checks that sessions charge their pattern
// storage to the tenant derived from the session ID, and that closing a
// session returns every byte.
func TestStoreTenantAccounting(t *testing.T) {
	srv, client := testServer(t, Config{})
	branches := workloadBranches(t, "nodeapp", 30_000)

	sendInBatches(t, client, "acme/s1", "llbp", branches, 1024)
	sendInBatches(t, client, "plain", "llbp", branches, 1024)
	sendInBatches(t, client, "tagey", "tsl-8k", branches, 1024)

	pool := srv.Store()
	tb := pool.TenantBytes()
	if tb["acme"] <= 0 || tb["default"] <= 0 {
		t.Fatalf("tenant bytes not charged: %v", tb)
	}
	if pool.AttachedBytes() != tb["acme"]+tb["default"] {
		t.Fatalf("attached %d != sum of tenants %v", pool.AttachedBytes(), tb)
	}
	// tsl-8k has no poolable second level: it must not appear anywhere.
	if pool.Namespaces() != 2 {
		t.Fatalf("namespaces = %d, want 2 (tsl-8k sessions must not attach)", pool.Namespaces())
	}

	for _, id := range []string{"acme/s1", "plain", "tagey"} {
		if _, err := client.CloseSession(context.Background(), id); err != nil {
			t.Fatalf("close %s: %v", id, err)
		}
	}
	if pool.AttachedBytes() != 0 || pool.Namespaces() != 0 {
		t.Fatalf("pool not drained after closes: attached=%d namespaces=%d",
			pool.AttachedBytes(), pool.Namespaces())
	}
	tb = pool.TenantBytes()
	for tenant, b := range tb {
		if b != 0 {
			t.Fatalf("tenant %q retains %d bytes after close", tenant, b)
		}
	}
}

// storeProbeBytes measures one llbp-tiny session's attached bytes (the
// unit the budget tests size themselves in).
func storeProbeBytes(t *testing.T, branches []core.Branch) int64 {
	t.Helper()
	srv, client := testServer(t, Config{})
	sendInBatches(t, client, "probe", "llbp-tiny", branches, 2048)
	per := srv.Store().AttachedBytes()
	if per <= 0 {
		t.Fatalf("probe session attached %d bytes, want > 0", per)
	}
	return per
}

// TestStoreBudgetAcceptance is the memory-budget acceptance bar: far more
// sessions than the budget holds, streamed in interleaved waves so nearly
// every session is spilled (checkpointed, frozen, storage released)
// between its batches. Afterwards the pool must sit within budget, spills
// must have happened, and — the bit-exactness half — every session's
// final statistics must equal a local sim.Run over the same stream,
// spill/thaw cycles and all.
func TestStoreBudgetAcceptance(t *testing.T) {
	registerTiny(t)
	const instrBudget = 12_000
	nSessions, residentTarget := 1000, 100
	if testing.Short() {
		nSessions, residentTarget = 128, 24
	}

	workloads := []string{"nodeapp", "whiskey", "tpcc", "kafka"}
	type wl struct {
		name     string
		branches []core.Branch
		want     SessionStats
	}
	wls := make([]wl, len(workloads))
	for i, name := range workloads {
		branches := workloadBranches(t, name, instrBudget)
		p, err := NewPredictor("llbp-tiny")
		if err != nil {
			t.Fatal(err)
		}
		local, err := sim.Run(p, core.NewSliceSource(branches), sim.Options{MeasureInstr: instrBudget})
		if err != nil {
			t.Fatal(err)
		}
		wls[i] = wl{name: name, branches: branches, want: SessionStats{
			Instructions:  local.Measured.Instructions,
			CondBranches:  local.Measured.CondBranches,
			Mispredicts:   local.Measured.Mispredicts,
			UncondCount:   local.Measured.UncondCount,
			SecondLevelOK: local.Measured.SecondLevelOK,
			MPKI:          local.MPKI(),
		}}
	}

	perSession := storeProbeBytes(t, wls[0].branches)
	budget := perSession * int64(residentTarget)

	srv := New(Config{
		StoreBudget: budget,
		StoreShare:  true,
		SnapshotDir: t.TempDir(),
		SessionTTL:  -1, // only budget pressure evicts
	})
	hs := httptest.NewServer(srv)
	defer func() { hs.Close(); srv.Close() }()

	// One client per workload so each declares its workload name as the
	// session fingerprint (frozen-blob dedup scope).
	clients := make([]*Client, len(wls))
	for i := range wls {
		clients[i] = NewClient(hs.URL, hs.Client())
		clients[i].Fingerprint = wls[i].name
	}

	// Wave 1: every session's first half. By the time session 0's second
	// half arrives in wave 2, ~nSessions-residentTarget other sessions
	// have pushed it out of the budget.
	halves := make([]int, nSessions)
	send := func(sessIdx, from, to int) SessionStats {
		w := wls[sessIdx%len(wls)]
		id := fmt.Sprintf("t%d/s-%d", sessIdx%7, sessIdx)
		resp, err := clients[sessIdx%len(wls)].Predict(context.Background(), id, "llbp-tiny", w.branches[from:to])
		if err != nil {
			t.Fatalf("session %d [%d:%d]: %v", sessIdx, from, to, err)
		}
		return resp.Stats
	}
	for i := 0; i < nSessions; i++ {
		halves[i] = len(wls[i%len(wls)].branches) / 2
		send(i, 0, halves[i])
	}
	spillsAfterWave1 := srv.Stats().StoreSpills
	if spillsAfterWave1 == 0 {
		t.Fatalf("no budget spills after %d sessions under a %d-session budget", nSessions, residentTarget)
	}

	// Wave 2: the second halves. Each batch must resume the session's
	// exact state — from memory, the frozen tier, or the disk checkpoint.
	for i := 0; i < nSessions; i++ {
		got := send(i, halves[i], len(wls[i%len(wls)].branches))
		want := wls[i%len(wls)].want
		if got.Instructions != want.Instructions || got.CondBranches != want.CondBranches ||
			got.Mispredicts != want.Mispredicts || got.UncondCount != want.UncondCount ||
			got.SecondLevelOK != want.SecondLevelOK || got.MPKI != want.MPKI {
			t.Fatalf("session %d (%s) diverged from local sim after spill/thaw:\nserver %+v\nlocal  %+v",
				i, wls[i%len(wls)].name, got, want)
		}
	}

	snap := srv.Stats()
	if snap.StoreResidentBytes > budget {
		t.Errorf("resident %d bytes exceeds budget %d at rest", snap.StoreResidentBytes, budget)
	}
	if snap.StoreSpills == 0 || snap.SessionsEvicted == 0 {
		t.Errorf("spill counters did not move: %+v", snap)
	}
	if snap.StoreFreezes == 0 {
		t.Errorf("no sessions frozen across %d spills", snap.StoreSpills)
	}
	// With live sessions pinning the whole budget, frozen blobs are
	// legitimately trimmed right back out — warm resumption then comes
	// from disk. The frozen tier's hit path is TestStoreFreezeThawDedup's
	// job; here the bar is exactness + the budget invariant.
}

// TestStoreFreezeThawDedup exercises the frozen tier's hit path: sessions
// evicted with budget headroom keep their predictor blobs in memory,
// same-fingerprint sessions at identical state collapse to one body, and
// the next batch resumes by thaw — with NO snapshot directory, so the
// warm resume can only have come from the pool.
func TestStoreFreezeThawDedup(t *testing.T) {
	registerTiny(t)
	const instrBudget = 12_000
	branches := workloadBranches(t, "whiskey", instrBudget)
	p, err := NewPredictor("llbp-tiny")
	if err != nil {
		t.Fatal(err)
	}
	local, err := sim.Run(p, core.NewSliceSource(branches), sim.Options{MeasureInstr: instrBudget})
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{
		StoreBudget: 256 << 20, // headroom: frozen blobs must survive
		StoreShare:  true,
		SessionTTL:  time.Millisecond,
		EvictEvery:  time.Hour, // eviction is driven manually below
	})
	hs := httptest.NewServer(srv)
	defer func() { hs.Close(); srv.Close() }()
	client := NewClient(hs.URL, hs.Client())
	client.Fingerprint = "whiskey"

	half := len(branches) / 2
	const nSessions = 4
	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("s-%d", i)
		if _, err := client.Predict(context.Background(), id, "llbp-tiny", branches[:half]); err != nil {
			t.Fatal(err)
		}
	}
	// Evict everything: with sharing on and headroom, eviction freezes
	// into the pool. All four sessions saw the identical stream, so their
	// blobs are byte-identical and dedup to one body.
	time.Sleep(5 * time.Millisecond)
	if n := srv.EvictIdle(); n != nSessions {
		t.Fatalf("evicted %d sessions, want %d", n, nSessions)
	}
	snap := srv.Stats()
	if snap.StoreFreezes != nSessions {
		t.Fatalf("freezes = %d, want %d", snap.StoreFreezes, nSessions)
	}
	if snap.StoreDedupHits != nSessions-1 {
		t.Errorf("dedup hits = %d, want %d (identical same-fingerprint blobs must share)",
			snap.StoreDedupHits, nSessions-1)
	}
	if srv.Store().FrozenCount() != nSessions {
		t.Errorf("frozen sessions = %d, want %d", srv.Store().FrozenCount(), nSessions)
	}

	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("s-%d", i)
		resp, err := client.Predict(context.Background(), id, "llbp-tiny", branches[half:])
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Restored {
			t.Errorf("session %s: second half did not resume warm (no snapshot dir — must thaw)", id)
		}
		if got, want := resp.Stats.MPKI, local.MPKI(); got != want {
			t.Errorf("session %s: MPKI %v after thaw, local sim %v", id, got, want)
		}
	}
	snap = srv.Stats()
	if snap.StoreThaws != nSessions {
		t.Errorf("thaws = %d, want %d", snap.StoreThaws, nSessions)
	}
	if snap.StoreSharedRestores == 0 {
		t.Errorf("no shared restores despite %d sessions thawing one deduped body", nSessions)
	}
}

// TestStoreConcurrentChurn hammers one budgeted server from many
// goroutines with overlapping session IDs, interleaved closes, and
// constant budget pressure — the -race bar for the serve/pool seam (spill
// vs. batch vs. close vs. thaw).
func TestStoreConcurrentChurn(t *testing.T) {
	registerTiny(t)
	branches := workloadBranches(t, "nodeapp", 6_000)
	perSession := storeProbeBytes(t, branches)

	srv := New(Config{
		StoreBudget: perSession * 4,
		StoreShare:  true,
		SnapshotDir: t.TempDir(),
		SessionTTL:  -1,
	})
	hs := httptest.NewServer(srv)
	defer func() { hs.Close(); srv.Close() }()

	workers := 8
	iters := 30
	if testing.Short() {
		workers, iters = 4, 10
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := NewClient(hs.URL, hs.Client())
			client.Fingerprint = "churn"
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("churn/s-%d", (w+i)%11)
				if _, err := client.Predict(context.Background(), id, "llbp-tiny", branches); err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if i%5 == 4 {
					// Close may race another worker's predict on the same
					// ID; "not found" is then a legitimate answer.
					_, _ = client.CloseSession(context.Background(), id)
				}
			}
		}(w)
	}
	wg.Wait()

	pool := srv.Store()
	if pool.Budget() > 0 && pool.OverBudget() {
		// One live session may legitimately exceed a tiny budget; more
		// than the resident slack means reclaim lost track.
		srv.reclaimStore(nil)
		if pool.TotalBytes() > pool.Budget()+perSession {
			t.Errorf("pool irrecoverably over budget: total=%d budget=%d", pool.TotalBytes(), pool.Budget())
		}
	}
	if pool.AttachedBytes() < 0 || pool.ArenaBytes() < 0 || pool.FrozenBytes() < 0 {
		t.Errorf("negative accounting: attached=%d arena=%d frozen=%d",
			pool.AttachedBytes(), pool.ArenaBytes(), pool.FrozenBytes())
	}
}

// TestStoreThawDeclineKeepsFrozenState: a batch that names another
// predictor than a frozen session holds declines the thaw and starts
// cold, but the frozen state goes back into the pool under the
// fingerprint it was shared under, and a later batch naming the
// original predictor still resumes it warm.
func TestStoreThawDeclineKeepsFrozenState(t *testing.T) {
	registerTiny(t)
	const instrBudget = 12_000
	branches := workloadBranches(t, "whiskey", instrBudget)
	p, err := NewPredictor("llbp-tiny")
	if err != nil {
		t.Fatal(err)
	}
	local, err := sim.Run(p, core.NewSliceSource(branches), sim.Options{MeasureInstr: instrBudget})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{StoreBudget: 256 << 20, StoreShare: true, SessionTTL: time.Millisecond, EvictEvery: time.Hour})
	defer srv.Close()
	batch := func(id, predictor string, bs []core.Branch) (restored bool) {
		t.Helper()
		resp, aerr := srv.Predict(context.Background(), Batch{Session: id, Predictor: predictor, Fingerprint: "whiskey", Branches: bs},
			make([]core.Prediction, len(bs)))
		if aerr != nil {
			t.Fatal(aerr)
		}
		return resp.Restored
	}
	evict := func(want int) {
		t.Helper()
		time.Sleep(5 * time.Millisecond)
		if n := srv.EvictIdle(); n != want {
			t.Fatalf("evicted %d sessions, want %d", n, want)
		}
	}
	half := len(branches) / 2
	batch("a", "llbp-tiny", branches[:half])
	batch("b", "llbp-tiny", branches[:half])
	evict(2)
	if hits := srv.Stats().StoreDedupHits; hits != 1 {
		t.Fatalf("dedup hits = %d after freezing twins, want 1", hits)
	}
	if batch("a", "tsl-8k", branches[:100]) {
		t.Fatal("a batch naming another predictor resumed the frozen llbp-tiny state")
	}
	if hits := srv.Stats().StoreDedupHits; hits != 2 {
		t.Errorf("dedup hits = %d after the declined thaw, want 2 (re-frozen under its fingerprint)", hits)
	}
	evict(1) // the cold tsl-8k session has no pooled state to freeze
	if !batch("a", "llbp-tiny", branches[half:]) {
		t.Fatal("the original predictor did not resume warm after a declined thaw")
	}
	sess, _, _, err := srv.acquireSession("a", "llbp-tiny", "whiskey")
	if err != nil {
		t.Fatal(err)
	}
	got := sess.snapshot()
	srv.releaseSessionRef(sess)
	if got.MPKI != local.MPKI() || got.Batches != 2 {
		t.Errorf("after the declined thaw: MPKI %v over %d batches, local sim %v over 2", got.MPKI, got.Batches, local.MPKI())
	}
}
