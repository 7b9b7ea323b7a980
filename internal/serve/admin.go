package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"llbpx/internal/snapshot"
)

// Admin transfer API --------------------------------------------------------
//
// The cluster tier moves a live session between llbpd backends as
// drain-checkpoint → transfer → warm-restore. These endpoints are the
// transfer leg: export serializes one session through the bit-identical
// snapshot layer (the same codec the on-disk checkpoint path uses, CRC
// and all), import installs those bytes as a live session on the new
// owner. Both sit under /admin/v1 because they are operator/gateway
// surface, not client surface: an import silently replaces any existing
// session under the same ID, which no client should be able to do.

// ExportSession serializes session id's complete state — identity,
// accumulated statistics, sequencing cursor, and the predictor's learned
// state — as a self-validating snapshot blob. A live session is
// serialized under its lock (a consistent between-batches cut: callers
// that need the cursor frozen must quiesce the stream first, which the
// gateway does). A session that is not in memory but has an on-disk
// checkpoint exports that file's bytes verbatim; the blob's own CRC
// protects the transfer either way.
func (s *Server) ExportSession(id string) ([]byte, error) {
	if sess := s.sessions.get(id); sess != nil {
		if _, ok := sess.pred.(snapshot.State); !ok {
			return nil, fmt.Errorf("serve: predictor %q does not support snapshots: %w", sess.PredictorName, ErrBadRequest)
		}
		sess.mu.Lock()
		blob := snapshot.Encode(sess.PredictorName, sessionState{sess})
		sess.mu.Unlock()
		s.metrics.sessionsExported.Inc()
		return blob, nil
	}
	// Not in memory: an evicted-to-disk checkpoint is still exportable
	// (the gateway migrates cold sessions too, so their warm state follows
	// them instead of being orphaned on the old owner).
	if s.cfg.SnapshotDir != "" {
		if data, err := os.ReadFile(s.snapPath(id)); err == nil {
			s.metrics.sessionsExported.Inc()
			return data, nil
		}
	}
	return nil, fmt.Errorf("serve: no session %q: %w", id, ErrSessionNotFound)
}

// decodeSessionBlob materializes an exported checkpoint blob as a fully
// constructed session — predictor state, statistics, and cursor restored
// — WITHOUT publishing it in the shard map. The import path publishes it
// immediately; the replication path parks it as a warm standby instead.
// A corrupt or torn blob returns ErrSnapshotCorrupt and leaves nothing
// allocated.
func (s *Server) decodeSessionBlob(id string, data []byte) (*Session, error) {
	var sess *Session
	_, _, err := snapshot.Decode(data, func(name string) (snapshot.State, error) {
		ns, nerr := s.newSession(id, name, "", false)
		if nerr != nil {
			return nil, nerr
		}
		if _, ok := ns.pred.(snapshot.State); !ok {
			s.releaseSessionStore(ns)
			return nil, fmt.Errorf("predictor %q does not support snapshots", name)
		}
		sess = ns
		return sessionState{ns}, nil
	})
	if err != nil {
		if sess != nil {
			s.releaseSessionStore(sess)
		}
		if errors.Is(err, snapshot.ErrCorrupt) {
			return nil, fmt.Errorf("serve: import of session %q: %v: %w", id, err, ErrSnapshotCorrupt)
		}
		return nil, err
	}
	return sess, nil
}

// ImportSession installs an exported checkpoint blob as live session id,
// replacing any existing session under that ID (the transfer's
// destination must win — the source already quiesced and exported the
// authoritative state). The blob runs through the snapshot layer's full
// integrity checks before anything is installed: a corrupt or torn blob
// returns ErrSnapshotCorrupt and changes nothing, so the caller can
// re-export and retry — the same quarantine philosophy as the restore
// path, minus the file to rename. A stale on-disk checkpoint for the ID
// is deleted so it cannot resurrect pre-transfer state.
func (s *Server) ImportSession(id string, data []byte) (SessionFinal, error) {
	// Epoch 0 always passes the fence on servers that never replicated the
	// session, so non-replicating gateways are unaffected.
	return s.ImportSessionAt(id, 0, data)
}

// ImportSessionAt is ImportSession under an epoch fence: a replicating
// gateway stamps its session epoch into the transfer so a fenced-off
// former primary cannot overwrite post-failover state with a stale
// export. The fence follows the same rule as standby installs — reject
// below it, raise it on success.
func (s *Server) ImportSessionAt(id string, epoch uint64, data []byte) (SessionFinal, error) {
	s.replMu.Lock()
	if fence := s.epochs[id]; epoch < fence {
		s.replMu.Unlock()
		s.metrics.replicaStaleEpochs.Inc()
		return SessionFinal{}, fmt.Errorf("serve: import of %q at epoch %d, fence at %d: %w", id, epoch, fence, ErrStaleEpoch)
	}
	s.replMu.Unlock()
	sess, err := s.decodeSessionBlob(id, data)
	if err != nil {
		return SessionFinal{}, err
	}
	s.replMu.Lock()
	if fence := s.epochs[id]; epoch < fence {
		s.replMu.Unlock()
		s.releaseSessionStore(sess)
		s.metrics.replicaStaleEpochs.Inc()
		return SessionFinal{}, fmt.Errorf("serve: import of %q at epoch %d, fence at %d: %w", id, epoch, fence, ErrStaleEpoch)
	}
	if epoch > s.epochs[id] {
		s.epochs[id] = epoch
	}
	s.replMu.Unlock()
	// A live import supersedes any warm standby held for the ID (this
	// server may have been the session's standby before becoming its
	// owner); release it rather than strand its pattern storage.
	s.DropStandby(id)
	sess.restored = true
	sess.touch()
	if old := s.sessions.put(id, sess); old != nil {
		// The import's namespace replaced old's under the same pool key;
		// releasing still hands old's storage slabs back to the arena.
		s.releaseSessionStore(old)
		s.metrics.observeSessionEnd(old)
	}
	s.removeSnapshot(id)
	s.metrics.sessionsImported.Inc()
	return sess.final(), nil
}

// handleSessionExport is POST /admin/v1/sessions/{id}/export: the
// session's checkpoint blob as application/octet-stream.
func (s *Server) handleSessionExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, err := s.ExportSession(id)
	if err != nil {
		switch {
		case errors.Is(err, ErrSessionNotFound):
			WriteError(w, http.StatusNotFound, CodeSessionNotFound, "%v", err)
		case errors.Is(err, ErrBadRequest):
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		default:
			WriteError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleSessionImport is POST /admin/v1/sessions/{id}/import: the body is
// an exported checkpoint blob; the reply is the installed session's
// record. A blob that fails integrity checks is a 422 with the
// "snapshot_corrupt" code and installs nothing.
func (s *Server) handleSessionImport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "reading checkpoint body: %v", err)
		return
	}
	// Replicating gateways stamp the session's fence epoch into the
	// transfer; absent header = epoch 0 (fence-free legacy import).
	var epoch uint64
	if h := r.Header.Get("X-LLBP-Epoch"); h != "" {
		if epoch, err = strconv.ParseUint(h, 10, 64); err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad X-LLBP-Epoch %q: %v", h, err)
			return
		}
	}
	fin, err := s.ImportSessionAt(id, epoch, data)
	if err != nil {
		switch {
		case errors.Is(err, ErrStaleEpoch):
			WriteError(w, http.StatusConflict, CodeStaleEpoch, "%v", err)
		case errors.Is(err, ErrSnapshotCorrupt):
			WriteError(w, http.StatusUnprocessableEntity, CodeSnapshotCorrupt, "%v", err)
		case errors.Is(err, ErrUnknownPredictor):
			WriteError(w, http.StatusBadRequest, CodeUnknownPredictor, "%v", err)
		default:
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		}
		return
	}
	WriteJSON(w, http.StatusOK, fin)
}
