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
// gateway does). A session that is not in memory exports from where
// resume would bring it back: the pool's frozen tier, then its on-disk
// checkpoint (whose bytes go out verbatim). The frozen blob stays in the
// pool, so a failed import can be retried with a fresh export; only
// CloseSession drops it. The blob's own CRC protects the transfer.
func (s *Server) ExportSession(id string) ([]byte, error) {
	sess := s.sessions.get(id)
	if sess == nil {
		// Not in memory: the gateway migrates cold sessions too, so their
		// warm state follows them instead of being orphaned here.
		if hdr, body, ok := s.store.Peek(poolKey(id)); ok {
			if frozen, err := s.materialize(id, "", checkpoint{blob: hdr, body: body}); err == nil {
				defer s.releaseSessionStore(frozen)
				sess = frozen
			}
		}
	}
	if sess == nil && s.cfg.SnapshotDir != "" {
		if data, err := os.ReadFile(s.snapPath(id)); err == nil {
			s.metrics.sessionsExported.Inc()
			return data, nil
		}
	}
	if sess == nil {
		return nil, fmt.Errorf("serve: no session %q: %w", id, ErrSessionNotFound)
	}
	if _, ok := sess.pred.(snapshot.State); !ok {
		return nil, fmt.Errorf("serve: predictor %q does not support snapshots: %w", sess.PredictorName, ErrBadRequest)
	}
	sess.mu.Lock()
	blob := snapshot.Encode(sess.PredictorName, sessionState{sess})
	sess.mu.Unlock()
	s.metrics.sessionsExported.Inc()
	return blob, nil
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
	sess, err := s.materializeFenced("import", id, epoch, data, nil)
	if err != nil {
		return SessionFinal{}, err
	}
	// A live import supersedes any warm standby held for the ID (this
	// server may have been the session's standby before becoming its
	// owner); release it rather than strand its pattern storage.
	s.DropStandby(id)
	s.publish(id, sess)
	s.metrics.sessionsImported.Inc()
	return sess.final(), nil
}

// materializeFenced materializes an exported checkpoint blob as session
// id under the epoch fence, without publishing it: the import path
// publishes it at once, the replication path parks it as a warm
// standby. The fence is checked before the decode (cheap rejection of a
// stale sender's late blob) and again under replMu afterwards (a
// promotion may have raced the decode). Once the fence holds it is
// raised to epoch and commit, when non-nil, runs under the same lock. A
// corrupt or torn blob returns ErrSnapshotCorrupt; on any failure
// nothing stays allocated.
func (s *Server) materializeFenced(op, id string, epoch uint64, data []byte, commit func(*Session)) (*Session, error) {
	s.replMu.Lock()
	err := s.fenceLocked(op, id, epoch)
	s.replMu.Unlock()
	if err != nil {
		return nil, err
	}
	sess, err := s.materialize(id, "", checkpoint{blob: data})
	if err != nil {
		if errors.Is(err, snapshot.ErrCorrupt) {
			return nil, fmt.Errorf("serve: %s of session %q: %v: %w", op, id, err, ErrSnapshotCorrupt)
		}
		return nil, err
	}
	s.replMu.Lock()
	if err := s.fenceLocked(op, id, epoch); err != nil {
		s.replMu.Unlock()
		s.releaseSessionStore(sess)
		return nil, err
	}
	if epoch > s.epochs[id] {
		s.epochs[id] = epoch
	}
	if commit != nil {
		commit(sess)
	}
	s.replMu.Unlock()
	return sess, nil
}

// fenceLocked fails with ErrStaleEpoch when epoch is below id's fence.
// The caller holds replMu.
func (s *Server) fenceLocked(op, id string, epoch uint64) error {
	if fence := s.epochs[id]; epoch < fence {
		s.metrics.replicaStaleEpochs.Inc()
		return fmt.Errorf("serve: %s of %q at epoch %d, fence at %d: %w", op, id, epoch, fence, ErrStaleEpoch)
	}
	return nil
}

// publish makes a materialized or promoted session the live session for
// id: it replaces any session already mapped under the ID (whose pool
// namespace the new one took over; releasing still hands old's storage
// back) and deletes the ID's disk checkpoint and frozen blob, which the
// published state supersedes.
func (s *Server) publish(id string, sess *Session) {
	sess.touch() // a standby may have been parked for a while
	if old := s.sessions.put(id, sess); old != nil {
		s.releaseSessionStore(old)
		s.metrics.observeSessionEnd(old)
	}
	s.removeSnapshot(id)
	s.store.Forget(poolKey(id))
}

// handleSessionExport is POST /admin/v1/sessions/{id}/export: the
// session's checkpoint blob as application/octet-stream.
func (s *Server) handleSessionExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, err := s.ExportSession(id)
	if err != nil {
		writeTransferError(w, err, http.StatusInternalServerError, CodeInternal)
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
		writeTransferError(w, err, http.StatusBadRequest, CodeBadRequest)
		return
	}
	WriteJSON(w, http.StatusOK, fin)
}

// writeTransferError answers a failed session transfer (export, import,
// standby install, promotion) with the status and envelope code of the
// sentinel it wraps, or with status and code when it wraps none.
func writeTransferError(w http.ResponseWriter, err error, status int, code string) {
	switch {
	case errors.Is(err, ErrStaleEpoch):
		status, code = http.StatusConflict, CodeStaleEpoch
	case errors.Is(err, ErrSnapshotCorrupt):
		status, code = http.StatusUnprocessableEntity, CodeSnapshotCorrupt
	case errors.Is(err, ErrUnknownPredictor):
		status, code = http.StatusBadRequest, CodeUnknownPredictor
	case errors.Is(err, ErrSessionNotFound):
		status, code = http.StatusNotFound, CodeSessionNotFound
	case errors.Is(err, ErrBadRequest):
		status, code = http.StatusBadRequest, CodeBadRequest
	}
	WriteError(w, status, code, "%v", err)
}
