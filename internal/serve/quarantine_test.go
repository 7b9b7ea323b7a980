package serve

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/faults"
)

// evictToDisk streams a first chunk for id, lets it cross the (short)
// TTL, and evicts it so a checkpoint lands on disk; it returns the
// checkpoint path.
func evictToDisk(t *testing.T, srv *Server, client *Client, dir, id string) string {
	t.Helper()
	branches := workloadBranches(t, "nodeapp", 10_000)
	if _, err := client.Predict(context.Background(), id, "tsl-8k", branches[:600]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := srv.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	path := filepath.Join(dir, id+".snap")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint after eviction: %v", err)
	}
	return path
}

// assertQuarantined asserts the post-corruption batch cold-starts with
// the requested configuration and the damaged file moved to *.corrupt.
func assertQuarantined(t *testing.T, srv *Server, client *Client, path, id string) {
	t.Helper()
	branches := workloadBranches(t, "nodeapp", 10_000)
	resp, err := client.Predict(context.Background(), id, "tsl-8k", branches[600:1200])
	if err != nil {
		t.Fatalf("predict over corrupt checkpoint must not error: %v", err)
	}
	if !resp.Created || resp.Restored || resp.Predictor != "tsl-8k" {
		t.Fatalf("created=%v restored=%v predictor=%q, want a cold tsl-8k start",
			resp.Created, resp.Restored, resp.Predictor)
	}
	if resp.Stats.Batches != 1 {
		t.Fatalf("batches = %d after cold start, want 1 (state must not carry over)", resp.Stats.Batches)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt checkpoint still in the restore path (stat err %v)", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if snap := srv.Stats(); snap.SnapshotQuarantined != 1 || snap.SnapshotRestores != 0 {
		t.Fatalf("quarantined=%d restores=%d, want 1/0", snap.SnapshotQuarantined, snap.SnapshotRestores)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, "llbpd_snapshot_quarantined_total 1") {
		t.Error("/metrics missing llbpd_snapshot_quarantined_total 1")
	}
}

// TestQuarantineTruncatedSnapshot: a checkpoint cut short on disk is
// renamed *.corrupt, counted, and the session restarts cold — it is
// never re-read on later restore attempts.
func TestQuarantineTruncatedSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, client := testServer(t, snapTestConfig(dir))
	path := evictToDisk(t, srv, client, dir, "trunc")

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}
	assertQuarantined(t, srv, client, path, "trunc")
}

// TestQuarantineBitFlippedSnapshot: one flipped byte mid-payload fails
// the decode (framing, bounds, or CRC) and quarantines the file.
func TestQuarantineBitFlippedSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, client := testServer(t, snapTestConfig(dir))
	path := evictToDisk(t, srv, client, dir, "bitflip")

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	assertQuarantined(t, srv, client, path, "bitflip")
}

// TestTornWriteLandsInQuarantine: the faults partial-write injector makes
// the checkpoint write "succeed" while silently dropping the tail — the
// torn write that defeats write-then-rename atomicity. The CRC catches it
// at restore and the file is quarantined.
func TestTornWriteLandsInQuarantine(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(5)
	inj.Set(FaultSnapshotWrite, faults.Rule{PartialAfter: 256})
	cfg := snapTestConfig(dir)
	cfg.Faults = inj
	srv, client := testServer(t, cfg)

	path := evictToDisk(t, srv, client, dir, "torn")
	if st, err := os.Stat(path); err != nil || st.Size() != 256 {
		t.Fatalf("torn checkpoint: size=%v err=%v, want exactly 256 bytes on disk", st, err)
	}
	if ws := inj.Stats(FaultSnapshotWrite); ws.Truncated == 0 {
		t.Fatalf("injector stats %+v: torn write never fired", ws)
	}
	inj.Clear(FaultSnapshotWrite)
	assertQuarantined(t, srv, client, path, "torn")
}

// TestTransientRestoreFaultColdStartsWithoutQuarantine: an injected
// transient read failure cold-starts the session but leaves the (good)
// file alone — quarantine is for corruption, not for I/O weather.
func TestTransientRestoreFaultColdStartsWithoutQuarantine(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(5)
	cfg := snapTestConfig(dir)
	cfg.Faults = inj
	srv, client := testServer(t, cfg)

	path := evictToDisk(t, srv, client, dir, "flaky")
	// Armed only now: resume also probes this site on the very
	// first batch of a brand-new session, which would burn the one-shot
	// error budget before the checkpoint exists.
	inj.Set(FaultSnapshotRestore, faults.Rule{ErrRate: 1, MaxErrors: 1})
	branches := workloadBranches(t, "nodeapp", 10_000)
	resp, err := client.Predict(context.Background(), "flaky", "tsl-8k", branches[600:1200])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Created || resp.Restored {
		t.Fatalf("created=%v restored=%v, want cold start past the transient fault", resp.Created, resp.Restored)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("good checkpoint must survive a transient read failure: %v", err)
	}
	if snap := srv.Stats(); snap.SnapshotQuarantined != 0 {
		t.Fatalf("quarantined = %d, want 0", snap.SnapshotQuarantined)
	}
}

// TestCheckpointWriteRetriesTransientError: one injected save failure is
// absorbed by the retry loop — the checkpoint still lands, the failed
// attempt is counted, and the session restores warm afterward.
func TestCheckpointWriteRetriesTransientError(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(5)
	inj.Set(FaultSnapshotSave, faults.Rule{ErrRate: 1, MaxErrors: 1})
	cfg := snapTestConfig(dir)
	cfg.Faults = inj
	srv, client := testServer(t, cfg)

	evictToDisk(t, srv, client, dir, "retryme")
	snap := srv.Stats()
	if snap.SnapshotSaves != 1 || snap.SnapshotSaveErrors != 1 {
		t.Fatalf("saves=%d errors=%d, want 1 save landed after 1 failed attempt",
			snap.SnapshotSaves, snap.SnapshotSaveErrors)
	}
	branches := workloadBranches(t, "nodeapp", 10_000)
	resp, err := client.Predict(context.Background(), "retryme", "tsl-8k", branches[600:1200])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Created || !resp.Restored {
		t.Fatalf("created=%v restored=%v, want a warm restore", resp.Created, resp.Restored)
	}
}

// TestFailedCheckpointLeavesNoStaleState: a session whose checkpoint
// fails every retry is dropped cold, so no older checkpoint of it may
// survive to be restored. A leftover file can come from a thaw (the
// session came back from the frozen tier, not from its file) or from an
// earlier save the session outlived (a budget spill that was called
// off). Either way, the next batch after the failed eviction must start
// cold rather than resume from state several batches old.
func TestFailedCheckpointLeavesNoStaleState(t *testing.T) {
	branches := workloadBranches(t, "nodeapp", 20_000)
	batch := func(i int) []core.Branch { return branches[i*500 : (i+1)*500] }
	setup := func(t *testing.T, share bool) (*Server, *Client, *faults.Injector, string) {
		dir := t.TempDir()
		inj := faults.New(5)
		srv, client := testServer(t, Config{
			SnapshotDir: dir,
			StoreShare:  share,
			StoreBudget: 256 << 20,
			SessionTTL:  time.Millisecond,
			EvictEvery:  time.Hour,
			Faults:      inj,
		})
		return srv, client, inj, filepath.Join(dir, "stale.snap")
	}
	predict := func(t *testing.T, client *Client, i int) *PredictResponse {
		t.Helper()
		resp, err := client.Predict(context.Background(), "stale", "llbp-x", batch(i))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	evict := func(t *testing.T, srv *Server) {
		t.Helper()
		time.Sleep(5 * time.Millisecond)
		if n := srv.EvictIdle(); n != 1 {
			t.Fatalf("evicted %d sessions, want 1", n)
		}
	}
	// failEvict evicts the session with every checkpoint attempt failing
	// and the frozen blob (if any) then lost; the next batch must be a
	// cold start.
	failEvict := func(t *testing.T, srv *Server, client *Client, inj *faults.Injector, path string, next int) {
		t.Helper()
		inj.Set(FaultSnapshotSave, faults.Rule{ErrRate: 1})
		evict(t, srv)
		inj.Clear(FaultSnapshotSave)
		srv.Store().Forget(poolKey("stale"))
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("an older checkpoint survived a failed save (stat err %v)", err)
		}
		resp := predict(t, client, next)
		if resp.Restored || resp.Stats.Batches != 1 {
			t.Fatalf("after a failed checkpoint: restored=%v batches=%d, want a cold start (batches=1)",
				resp.Restored, resp.Stats.Batches)
		}
	}

	t.Run("thaw", func(t *testing.T) {
		srv, client, inj, path := setup(t, true)
		predict(t, client, 0)
		evict(t, srv) // checkpoint to disk and freeze
		if resp := predict(t, client, 1); !resp.Restored || resp.Stats.Batches != 2 {
			t.Fatalf("second batch: restored=%v batches=%d, want a thaw (batches=2)", resp.Restored, resp.Stats.Batches)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("a thaw left the superseded disk checkpoint behind (stat err %v)", err)
		}
		predict(t, client, 2)
		failEvict(t, srv, client, inj, path, 3)
	})

	t.Run("leftover", func(t *testing.T) {
		srv, client, inj, path := setup(t, false)
		predict(t, client, 0)
		evict(t, srv)
		old, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if resp := predict(t, client, 1); !resp.Restored {
			t.Fatal("second batch did not restore from disk")
		}
		// A checkpoint the live session outlived, as an aborted spill
		// leaves it.
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		predict(t, client, 2)
		failEvict(t, srv, client, inj, path, 3)
	})
}
