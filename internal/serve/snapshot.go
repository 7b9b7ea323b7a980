package serve

import (
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"llbpx/internal/snapshot"
	"llbpx/internal/stats"
)

// sessionHeader is the session half of every checkpoint: identity,
// accumulated statistics, batch count, wire cursor and fingerprint. A
// disk checkpoint or export blob is the header followed by the
// predictor's state (sessionState); the frozen tier keeps the header and
// the predictor as two blobs, so sessions at identical predictor state
// share one body even though their statistics differ.
type sessionHeader struct{ sess *Session }

func (h sessionHeader) SaveState(w *snapshot.Writer) {
	s := h.sess
	w.Marker("serve.session")
	w.String(s.ID)
	st := &s.stats
	w.U64(st.Instructions)
	w.U64(st.CondBranches)
	w.U64(st.Mispredicts)
	w.U64(st.UncondCount)
	w.U64(st.SecondLevelOK)
	w.U64(st.Overrides)
	w.U64(s.batches)
	w.U64(s.wireSeq)
	w.String(s.Fingerprint)
}

func (h sessionHeader) LoadState(r *snapshot.Reader) {
	s := h.sess
	r.Marker("serve.session")
	id := r.String(4096)
	if r.Err() != nil {
		return
	}
	if id != s.ID {
		r.Fail("snapshot belongs to session %q, not %q", id, s.ID)
		return
	}
	s.stats = stats.BranchStats{
		Instructions:  r.U64(),
		CondBranches:  r.U64(),
		Mispredicts:   r.U64(),
		UncondCount:   r.U64(),
		SecondLevelOK: r.U64(),
		Overrides:     r.U64(),
	}
	s.batches = r.U64()
	s.wireSeq = r.U64()
	s.Fingerprint = r.String(4096)
	if s.ns != nil {
		s.ns.SetFingerprint(s.Fingerprint)
	}
}

// sessionState adapts a Session to snapshot.State: the session header
// followed by the predictor's complete learned state, so a restored
// session resumes its stream as if it never left memory.
type sessionState struct{ sess *Session }

func (ss sessionState) SaveState(w *snapshot.Writer) {
	sessionHeader(ss).SaveState(w)
	ss.sess.pred.(snapshot.State).SaveState(w)
}

func (ss sessionState) LoadState(r *snapshot.Reader) {
	sessionHeader(ss).LoadState(r)
	if r.Err() == nil {
		ss.sess.pred.(snapshot.State).LoadState(r)
	}
}

// snapPath is the checkpoint file for a session ID (path-escaped so
// arbitrary client IDs stay inside the snapshot directory).
func (s *Server) snapPath(id string) string {
	return filepath.Join(s.cfg.SnapshotDir, url.PathEscape(id)+".snap")
}

// saveSession checkpoints one session to the snapshot directory. The
// session lock is held across the write so the state is a consistent
// between-batches cut. Callers must only pass sessions no longer
// reachable from the shard map, or quiesced ones (drain).
func (s *Server) saveSession(sess *Session) error {
	if _, ok := sess.pred.(snapshot.State); !ok {
		return fmt.Errorf("serve: predictor %q does not support snapshots", sess.PredictorName)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := s.cfg.Faults.Fire(FaultSnapshotSave); err != nil {
		return err
	}
	start := time.Now()
	var wrap func(io.Writer) io.Writer
	if s.cfg.Faults != nil {
		wrap = func(w io.Writer) io.Writer { return s.cfg.Faults.WrapWriter(FaultSnapshotWrite, w) }
	}
	err := snapshot.WriteFileWrapped(s.snapPath(sess.ID), sess.PredictorName, sessionState{sess}, wrap)
	if err == nil {
		s.metrics.snapSaveDur.ObserveDuration(time.Since(start))
	}
	return err
}

// checkpointSessions saves each session, counting successes and failures;
// it is a no-op without a snapshot directory. A failed write is retried
// up to SnapshotRetries extra times immediately — losing a warm predictor
// to one transient I/O error is the costliest failure the serving layer
// has, so the write gets more than one chance. Every failed attempt
// counts in snapshot_save_errors_total; a session whose attempts are
// exhausted is dropped cold (the next batch for its ID starts fresh), so
// any older checkpoint it left behind is deleted rather than resurrected.
func (s *Server) checkpointSessions(sessions []*Session) {
	if s.cfg.SnapshotDir == "" {
		return
	}
	for _, sess := range sessions {
		var err error
		for attempt := 0; attempt <= s.cfg.SnapshotRetries; attempt++ {
			if err = s.saveSession(sess); err == nil {
				break
			}
			s.metrics.snapshotSaveErrors.Inc()
		}
		if err != nil {
			s.removeSnapshot(sess.ID)
			continue
		}
		s.metrics.snapshotSaves.Inc()
	}
}

// errDeclined marks a checkpoint that holds a different predictor than
// the client asked for: the bytes are fine, the request wants something
// else, so the checkpoint is kept rather than quarantined.
var errDeclined = errors.New("checkpoint holds another predictor")

// checkpoint is where materialize reads a session from: the disk file at
// path (read through snapshot.ReadFile's pooled buffer), or blob in
// memory. A blob is a whole session snapshot (an export or a standby
// ship) unless body is set; then blob holds only the session header and
// body the predictor, as the frozen tier stores them.
type checkpoint struct {
	path       string
	blob, body []byte
}

// materialize brings session id back into memory from a checkpoint: it
// constructs the predictor the checkpoint names, loads the session
// header and the predictor state, and marks the session restored. want
// is the client's explicitly requested predictor ("" accepts whatever
// the checkpoint holds); a mismatch wraps errDeclined. A decode failure
// wraps snapshot.ErrCorrupt. On any failure nothing stays allocated:
// the session's pool namespace is released, so a corrupt checkpoint can
// never yield a silently-wrong session. The session is not published;
// the caller decides where it goes.
func (s *Server) materialize(id, want string, src checkpoint) (*Session, error) {
	var sess *Session
	construct := func(name string) (snapshot.State, error) {
		if want != "" && name != want {
			return nil, fmt.Errorf("%w: %q, client wants %q", errDeclined, name, want)
		}
		ns, err := s.newSession(id, name, "", false)
		if err != nil {
			return nil, err
		}
		sess = ns
		if _, ok := ns.pred.(snapshot.State); !ok {
			return nil, fmt.Errorf("predictor %q does not support snapshots", name)
		}
		if src.body != nil {
			return sessionHeader{ns}, nil
		}
		return sessionState{ns}, nil
	}
	var err error
	if src.path != "" {
		_, _, err = snapshot.ReadFile(src.path, construct)
	} else {
		_, _, err = snapshot.Decode(src.blob, construct)
	}
	if err == nil && src.body != nil {
		_, _, err = snapshot.Decode(src.body, func(name string) (snapshot.State, error) {
			if name != sess.PredictorName {
				return nil, fmt.Errorf("%w: body holds predictor %q, header %q", snapshot.ErrCorrupt, name, sess.PredictorName)
			}
			return sess.pred.(snapshot.State), nil
		})
	}
	if err != nil {
		if sess != nil {
			s.releaseSessionStore(sess)
		}
		return nil, err
	}
	sess.restored = true
	sess.touch()
	return sess, nil
}

// resume brings a spilled session back warm: from the pool's frozen tier
// first, then from its disk checkpoint. want is the client's explicitly
// requested predictor ("" accepts whatever was saved). Any failure — no
// state, corrupt bytes, version or predictor mismatch — returns ok=false
// and the caller cold-starts: saved state is a cache, never
// authoritative, so there is no error path back to the client. The
// state a session resumes from supersedes its disk checkpoint, which is
// deleted either way, so an older file can never outlive it.
//
// Thaw consumes the frozen blob, so a declined thaw (predictor mismatch)
// re-freezes the taken bytes to keep the state warm. Corrupt checkpoint
// files are quarantined, not retried: a file whose decode wraps
// snapshot.ErrCorrupt (bad magic, truncation, framing or checksum
// mismatch, version skew) would fail identically on every future
// restore, so it is renamed to <path>.corrupt — preserved for
// post-mortem, out of the restore path — and counted in
// snapshot_quarantined_total. Declined restores leave the file alone.
func (s *Server) resume(id, want string) (*Session, bool) {
	if hdr, body, ok := s.store.Thaw(poolKey(id)); ok {
		sess, err := s.materialize(id, want, checkpoint{blob: hdr, body: body})
		if err == nil {
			s.removeSnapshot(id)
			return sess, true
		}
		if errors.Is(err, errDeclined) {
			// Put the blob back under the fingerprint its header
			// declares, so it stays shared with its twins.
			h := Session{ID: id}
			if _, _, err := snapshot.Decode(hdr, func(string) (snapshot.State, error) {
				return sessionHeader{&h}, nil
			}); err == nil {
				s.store.Freeze(poolKey(id), h.Fingerprint, hdr, body)
			}
		}
	}
	if s.cfg.SnapshotDir == "" {
		return nil, false
	}
	// Injected transient read failure: cold-start without quarantining —
	// the file on disk is presumed good.
	if s.cfg.Faults.Fire(FaultSnapshotRestore) != nil {
		return nil, false
	}
	path := s.snapPath(id)
	start := time.Now()
	sess, err := s.materialize(id, want, checkpoint{path: path})
	if err != nil {
		if errors.Is(err, snapshot.ErrCorrupt) {
			s.quarantineSnapshot(path)
		}
		return nil, false
	}
	s.metrics.snapRestoreDur.ObserveDuration(time.Since(start))
	os.Remove(path)
	return sess, true
}

// removeSnapshot deletes a session's checkpoint file, if any.
func (s *Server) removeSnapshot(id string) {
	if s.cfg.SnapshotDir != "" {
		os.Remove(s.snapPath(id))
	}
}

// quarantineSnapshot moves a checkpoint that failed to decode out of the
// restore path by renaming it to <path>.corrupt (overwriting an earlier
// quarantined generation of the same ID — the newest corpse is the
// interesting one). The session restarts cold; the bytes survive for
// debugging.
func (s *Server) quarantineSnapshot(path string) {
	if os.Rename(path, path+".corrupt") == nil {
		s.metrics.snapshotQuarantined.Inc()
	}
}
