package llbpx_test

// Golden checkpoint-byte suite: the on-disk encoding of predictor state is
// a compatibility surface. Evicted sessions are reloaded from disk, the
// pattern pool's frozen tier deduplicates blobs by content hash, and
// replicas install blobs written by a peer built from another revision.
// So for every registry predictor and every synthetic workload,
// testdata/checkpoints.json records a SHA-256 over the SavePredictorState
// bytes taken right after the fingerprint stream (fpDrive). A refactor of
// predictor internals must reproduce these byte for byte. Re-record (only
// when the snapshot format is changed on purpose, with a snapshot.Version
// bump) with:
//
//	LLBPX_RECORD_CHECKPOINTS=1 go test -run TestGoldenCheckpointBytes .

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"llbpx"
)

const checkpointPath = "testdata/checkpoints.json"

// checkpointDigest is one (predictor, workload) cell of the golden matrix.
type checkpointDigest struct {
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

func TestGoldenCheckpointBytes(t *testing.T) {
	recording := os.Getenv("LLBPX_RECORD_CHECKPOINTS") != ""
	var golden map[string]checkpointDigest
	if !recording {
		data, err := os.ReadFile(checkpointPath)
		if err != nil {
			t.Fatalf("golden checkpoints missing (record with LLBPX_RECORD_CHECKPOINTS=1): %v", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("corrupt %s: %v", checkpointPath, err)
		}
	}

	var mu sync.Mutex
	recorded := make(map[string]checkpointDigest)
	t.Run("cells", func(t *testing.T) {
		for _, predName := range builtinPredictors {
			for _, wlName := range llbpx.WorkloadNames() {
				if testing.Short() && !recording &&
					!(fpShortPredictors[predName] && fpShortWorkloads[wlName]) {
					continue
				}
				predName, wlName := predName, wlName
				key := predName + "/" + wlName
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					p, err := llbpx.NewPredictorByName(predName)
					if err != nil {
						t.Fatal(err)
					}
					fpDrive(p, rtStreams()[wlName])
					var buf bytes.Buffer
					if err := llbpx.SavePredictorState(&buf, predName, p); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(buf.Bytes())
					got := checkpointDigest{SHA256: hex.EncodeToString(sum[:]), Bytes: buf.Len()}
					if recording {
						mu.Lock()
						recorded[key] = got
						mu.Unlock()
						return
					}
					want, ok := golden[key]
					if !ok {
						t.Fatalf("no golden checkpoint for %s — record with LLBPX_RECORD_CHECKPOINTS=1", key)
					}
					if got != want {
						t.Errorf("checkpoint bytes diverged from golden:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	})
	if !recording {
		return
	}
	data, err := json.MarshalIndent(recorded, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(checkpointPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d checkpoint digests to %s", len(recorded), checkpointPath)
}
