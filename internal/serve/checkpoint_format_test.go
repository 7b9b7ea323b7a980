package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"llbpx/internal/core"
)

// TestCheckpointFormatPinned pins the bytes a session leaves a process
// as: the disk checkpoint a drain writes and the ExportSession blob the
// cluster tier migrates and ships to standbys. Both carry the session
// header (ID, statistics, batch count, wire cursor, fingerprint) in front
// of the predictor state, which TestGoldenCheckpointBytes does not
// reach. Each session is driven over a fixed nodeapp prefix through the
// sequenced wire path, so the cursor and the fingerprint are non-zero in
// the pinned bytes. A change to these digests is a checkpoint format
// change and needs a snapshot.Version bump.
func TestCheckpointFormatPinned(t *testing.T) {
	branches := workloadBranches(t, "nodeapp", 40_000)
	cases := []struct {
		predictor          string
		bytes              int
		diskSHA, exportSHA string
	}{
		{"tsl-8k", 18833,
			"93cb62cb9fc54520f3f2e8434bd24fee52ecf1d14c83b4f5a9b007aeb373064f",
			"93cb62cb9fc54520f3f2e8434bd24fee52ecf1d14c83b4f5a9b007aeb373064f"},
		{"llbp-x", 131859,
			"7aa84a87b29a9f24f6bbcd5833ab1863caf6f0d679c76b7a392c0c696e3c6e9e",
			"7aa84a87b29a9f24f6bbcd5833ab1863caf6f0d679c76b7a392c0c696e3c6e9e"},
	}
	for _, tc := range cases {
		t.Run(tc.predictor, func(t *testing.T) {
			dir := t.TempDir()
			srv := New(Config{SnapshotDir: dir, SessionTTL: -1})
			defer srv.Close()
			id := "acme/pin-" + tc.predictor
			sess, _, _, err := srv.AcquireSession(id, tc.predictor, "nodeapp")
			if err != nil {
				t.Fatal(err)
			}
			preds := make([]core.Prediction, 1024)
			for seq, start := uint64(1), 0; start < len(branches); seq, start = seq+1, start+1024 {
				batch := branches[start:min(start+1024, len(branches))]
				if st, _ := srv.ExecuteWireBatch(sess, seq, batch, preds, 0); st != WireApplied {
					t.Fatalf("batch %d: status %v", seq, st)
				}
			}
			srv.ReleaseSessionRef(sess)

			export, err := srv.ExportSession(id)
			if err != nil {
				t.Fatal(err)
			}
			srv.Drain()
			disk, err := os.ReadFile(filepath.Join(dir, "acme%2Fpin-"+tc.predictor+".snap"))
			if err != nil {
				t.Fatal(err)
			}
			exportSum := sha256.Sum256(export)
			diskSum := sha256.Sum256(disk)
			if len(disk) != tc.bytes {
				t.Errorf("disk checkpoint is %d bytes, pinned %d", len(disk), tc.bytes)
			}
			if got := hex.EncodeToString(diskSum[:]); got != tc.diskSHA {
				t.Errorf("disk checkpoint sha256 %s, pinned %s", got, tc.diskSHA)
			}
			if got := hex.EncodeToString(exportSum[:]); got != tc.exportSHA {
				t.Errorf("export blob sha256 %s, pinned %s", got, tc.exportSHA)
			}
		})
	}
}
