package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/sim"
)

// TestAdminExportImportRoundTrip is the transfer leg of live migration in
// miniature: stream half a workload to server A, export the session over
// the admin API, import it into server B, stream the second half there —
// final statistics must equal a local sim.Run over the unbroken stream.
func TestAdminExportImportRoundTrip(t *testing.T) {
	const instrBudget = 60_000
	branches := workloadBranches(t, "nodeapp", instrBudget)
	half := len(branches) / 2

	p, err := NewPredictor("tsl-8k")
	if err != nil {
		t.Fatal(err)
	}
	local, err := sim.Run(p, core.NewSliceSource(branches), sim.Options{MeasureInstr: instrBudget})
	if err != nil {
		t.Fatal(err)
	}

	srvA, clientA := testServer(t, Config{})
	_, clientB := testServer(t, Config{})
	ctx := context.Background()

	sendInBatches(t, clientA, "mig", "tsl-8k", branches[:half], 1024)

	blob, err := clientA.ExportSession(ctx, "mig")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("empty export blob")
	}
	// Export is non-destructive: the source session stays live.
	if srvA.Sessions() != 1 {
		t.Fatalf("source has %d sessions after export, want 1", srvA.Sessions())
	}

	fin, err := clientB.ImportSession(ctx, "mig", blob)
	if err != nil {
		t.Fatal(err)
	}
	if fin.ID != "mig" || fin.Predictor != "tsl-8k" {
		t.Fatalf("imported record %+v", fin)
	}

	got := sendInBatches(t, clientB, "mig", "tsl-8k", branches[half:], 1024)
	want := local.Measured
	if got.Instructions != want.Instructions || got.CondBranches != want.CondBranches ||
		got.Mispredicts != want.Mispredicts || got.UncondCount != want.UncondCount ||
		got.SecondLevelOK != want.SecondLevelOK || got.MPKI != local.MPKI() {
		t.Fatalf("migrated session diverges from unbroken local sim:\nserver %+v\nlocal  %+v", got, want)
	}
}

// TestAdminExportFromDisk: a session that was evicted to disk (not in
// memory) exports its checkpoint file's bytes, so cold sessions migrate
// too.
func TestAdminExportFromDisk(t *testing.T) {
	dir := t.TempDir()
	srv, client := testServer(t, snapTestConfig(dir))
	ctx := context.Background()
	branches := workloadBranches(t, "kafka", 20_000)
	sendInBatches(t, client, "colder", "tsl-8k", branches, 1024)

	time.Sleep(50 * time.Millisecond)
	if n := srv.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "colder.snap"))
	if err != nil {
		t.Fatalf("no checkpoint after eviction: %v", err)
	}

	blob, err := client.ExportSession(ctx, "colder")
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(onDisk) {
		t.Fatal("disk export differs from the checkpoint file bytes")
	}

	// A session that exists nowhere is a typed not-found.
	if _, err := client.ExportSession(ctx, "ghost"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("export of missing session: %v, want ErrSessionNotFound", err)
	}
}

// TestAdminImportReplacesExisting: import overwrites a live session under
// the same ID — the transferred state is authoritative.
func TestAdminImportReplacesExisting(t *testing.T) {
	_, clientA := testServer(t, Config{})
	srvB, clientB := testServer(t, Config{})
	ctx := context.Background()
	branches := workloadBranches(t, "nodeapp", 30_000)

	sendInBatches(t, clientA, "dup", "tsl-8k", branches, 1024)
	blob, err := clientA.ExportSession(ctx, "dup")
	if err != nil {
		t.Fatal(err)
	}

	// B already has an unrelated session under the same ID.
	sendInBatches(t, clientB, "dup", "tsl-8k", branches[:len(branches)/4], 1024)

	fin, err := clientB.ImportSession(ctx, "dup", blob)
	if err != nil {
		t.Fatal(err)
	}
	src, err := clientA.SessionStats(ctx, "dup")
	if err != nil {
		t.Fatal(err)
	}
	if fin.Stats != src.Stats {
		t.Fatalf("imported stats diverge from source:\nimport %+v\nsource %+v", fin.Stats, src.Stats)
	}
	if srvB.Sessions() != 1 {
		t.Fatalf("destination has %d sessions, want 1", srvB.Sessions())
	}
}

// TestAdminImportRejectsCorrupt: a torn or bit-flipped blob is refused
// with the snapshot_corrupt code and installs nothing.
func TestAdminImportRejectsCorrupt(t *testing.T) {
	_, clientA := testServer(t, Config{})
	srvB, clientB := testServer(t, Config{})
	ctx := context.Background()
	branches := workloadBranches(t, "kafka", 20_000)
	sendInBatches(t, clientA, "torn", "tsl-8k", branches, 1024)
	blob, err := clientA.ExportSession(ctx, "torn")
	if err != nil {
		t.Fatal(err)
	}

	truncated := blob[:len(blob)/2]
	if _, err := clientB.ImportSession(ctx, "torn", truncated); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("truncated import: %v, want ErrSnapshotCorrupt", err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := clientB.ImportSession(ctx, "torn", flipped); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("bit-flipped import: %v, want ErrSnapshotCorrupt", err)
	}
	if srvB.Sessions() != 0 {
		t.Fatalf("corrupt imports installed %d sessions, want 0", srvB.Sessions())
	}

	// The intact blob still imports after the failures.
	if _, err := clientB.ImportSession(ctx, "torn", blob); err != nil {
		t.Fatal(err)
	}
	if srvB.Sessions() != 1 {
		t.Fatalf("destination has %d sessions, want 1", srvB.Sessions())
	}
}

// TestAdminExportPreservesWireCursor: the sequencing cursor rides the
// transfer, so a migrated session resumes the exactly-once contract where
// it left off.
func TestAdminExportPreservesWireCursor(t *testing.T) {
	srvA, _ := testServer(t, Config{})
	srvB, _ := testServer(t, Config{})
	branches := workloadBranches(t, "nodeapp", 20_000)

	preds := make([]core.Prediction, len(branches))
	predict := func(srv *Server, predictor string, num uint64) PredictResponse {
		t.Helper()
		resp, aerr := srv.Predict(context.Background(), Batch{Session: "seq", Predictor: predictor, Num: num, Branches: branches}, preds)
		if aerr != nil {
			t.Fatalf("batch %d: %v", num, aerr)
		}
		return resp
	}
	for num := uint64(1); num <= 3; num++ {
		if predict(srvA, "tsl-8k", num).Duplicate {
			t.Fatalf("batch %d answered as a duplicate", num)
		}
	}
	blob, err := srvA.ExportSession("seq")
	if err != nil {
		t.Fatal(err)
	}
	fin, err := srvB.ImportSession("seq", blob)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Stats.WireCursor != 3 {
		t.Fatalf("imported wire cursor %d, want 3", fin.Stats.WireCursor)
	}
	// A resend of batch 3 on the new owner is a duplicate; batch 4 applies.
	if !predict(srvB, "", 3).Duplicate {
		t.Fatal("replayed batch 3 was applied, want duplicate")
	}
	if resp := predict(srvB, "", 4); resp.Duplicate || resp.Stats.WireCursor != 4 {
		t.Fatalf("batch 4: %+v, want applied at cursor 4", resp)
	}
}

// TestAdminExportFrozenSession: a session evicted into the pool's frozen
// tier (sharing on, no snapshot directory) exports its warm state, as
// resume would restore it, and the export leaves the frozen blob in
// place for a retried transfer. Streaming the rest on the importer must
// land exactly on a local sim.Run of the whole stream.
func TestAdminExportFrozenSession(t *testing.T) {
	registerTiny(t)
	const instrBudget = 40_000
	branches := workloadBranches(t, "whiskey", instrBudget)
	p, err := NewPredictor("llbp-tiny")
	if err != nil {
		t.Fatal(err)
	}
	local, err := sim.Run(p, core.NewSliceSource(branches), sim.Options{MeasureInstr: instrBudget})
	if err != nil {
		t.Fatal(err)
	}
	srvA := New(Config{StoreShare: true, SessionTTL: time.Millisecond, EvictEvery: time.Hour})
	defer srvA.Close()
	srvB := New(Config{SessionTTL: -1})
	defer srvB.Close()
	predict := func(srv *Server, bs []core.Branch) SessionStats {
		t.Helper()
		resp, aerr := srv.Predict(context.Background(), Batch{Session: "x", Predictor: "llbp-tiny", Branches: bs}, make([]core.Prediction, len(bs)))
		if aerr != nil {
			t.Fatal(aerr)
		}
		return resp.Stats
	}

	half := len(branches) / 2
	predict(srvA, branches[:half])
	time.Sleep(5 * time.Millisecond)
	if n := srvA.EvictIdle(); n != 1 || srvA.Store().FrozenCount() != 1 {
		t.Fatalf("evicted %d sessions, %d frozen; want the session frozen", n, srvA.Store().FrozenCount())
	}
	blob, err := srvA.ExportSession("x")
	if err != nil {
		t.Fatalf("export of a frozen session: %v", err)
	}
	if srvA.Store().FrozenCount() != 1 || srvA.Sessions() != 0 {
		t.Fatalf("export consumed the frozen blob or published the session (%d frozen, %d live)",
			srvA.Store().FrozenCount(), srvA.Sessions())
	}
	if _, err := srvB.ImportSession("x", blob); err != nil {
		t.Fatal(err)
	}
	got := predict(srvB, branches[half:])
	if got.Instructions != local.Measured.Instructions || got.Mispredicts != local.Measured.Mispredicts || got.MPKI != local.MPKI() {
		t.Fatalf("after a frozen export: %+v, local sim %+v (MPKI %v)", got, local.Measured, local.MPKI())
	}
}
