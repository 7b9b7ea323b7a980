package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"llbpx/internal/core"
)

// The predict path ---------------------------------------------------------
//
// llbpd has two frontends, the HTTP mux and the binary listener in
// internal/wire. Each decodes a batch its own way and then calls
// Predict, the server's one admission path, so both protocols share one
// drain barrier, one worker pool, one shard map, one sequencing contract
// and one metrics registry, and a session is reachable from either
// protocol under the same ID.

// Batch is one decoded predict call, from either frontend.
type Batch struct {
	// Session is the session ID the batch streams to.
	Session string
	// Predictor is the client's explicitly named predictor spec: ""
	// accepts whatever exists (or the server default for a fresh
	// session); a spec that conflicts with an existing session's
	// predictor is refused.
	Predictor string
	// Fingerprint is the workload fingerprint a freshly created session
	// declares ("" = none; ignored for existing sessions).
	Fingerprint string
	// Num is the session's batch number under the exactly-once
	// sequencing contract (1-based); 0 opts out and always applies.
	Num uint64
	// Branches is the batch, in retire order. Frontends refuse an empty
	// batch before calling Predict.
	Branches []core.Branch
}

// Predict runs one batch through admission and execution: the drain
// barrier, session acquire (create, thaw or restore), a worker slot
// under the shedding policy, the sequencing verdict, the predictor walk,
// metrics and replication accounting, and the budget spill. preds must
// hold at least len(b.Branches) elements; an applied batch leaves its raw
// per-branch predictions there.
//
// The reply carries every PredictResponse field but Predictions. A batch
// numbered at or below the session's cursor is the resend of one whose
// reply was lost: nothing re-executes, preds is untouched, and the reply
// is marked Duplicate. A refused batch returns an *APIError with the
// stable code and HTTP status; nothing was applied, and the codes
// draining, overloaded and out_of_order are safe to resend.
func (s *Server) Predict(ctx context.Context, b Batch, preds []core.Prediction) (PredictResponse, *APIError) {
	// From here the batch counts as in-flight: drain waits for it and it
	// is never dropped part-way.
	if !s.beginBatch() {
		s.metrics.rejected.Inc()
		return PredictResponse{}, refuse(http.StatusServiceUnavailable, CodeDraining, "server is draining")
	}
	defer s.endBatch()

	sess, created, restored, err := s.acquireSession(b.Session, b.Predictor, b.Fingerprint)
	if err != nil {
		switch {
		case errors.Is(err, ErrPredictorConflict):
			return PredictResponse{}, refuse(http.StatusConflict, CodePredictorConflict, "%v", err)
		case errors.Is(err, ErrUnknownPredictor):
			return PredictResponse{}, refuse(http.StatusBadRequest, CodeUnknownPredictor, "%v", err)
		}
		return PredictResponse{}, refuse(http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
	defer s.releaseSessionRef(sess)

	// Bounded worker pool: a slot gates the CPU-heavy predictor walk so a
	// flood of batches queues here instead of oversubscribing the host —
	// but only for AdmitTimeout. A batch that cannot get a slot in time is
	// shed whole (predictor state untouched, so the client retries it
	// verbatim), and a batch whose client went away while queueing is
	// dropped without execution. The pool's occupancy at admission is the
	// queue-depth sample: how many workers were already busy when this
	// batch arrived.
	depth := len(s.pool)
	if err := s.acquireSlot(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.shed.Inc()
			return PredictResponse{}, refuse(http.StatusTooManyRequests, CodeOverloaded,
				"no worker slot within %v (%d executing); batch shed, retry safe", s.cfg.AdmitTimeout, len(s.pool))
		}
		s.metrics.cancelled.Inc()
		return PredictResponse{}, refuse(http.StatusServiceUnavailable, CodeInternal, "client went away before execution: %v", err)
	}
	s.cfg.Faults.Delay(FaultBatchExec)
	start := time.Now()
	delta, snap, applied := sess.applyBatch(b.Num, b.Branches, preds)
	elapsed := time.Since(start)
	s.releaseSlot()
	if !applied {
		if b.Num <= snap.WireCursor {
			return PredictResponse{Session: b.Session, Predictor: sess.PredictorName, Duplicate: true, Stats: snap}, nil
		}
		// Skipping ahead is refused loudly: this is what makes pipelined
		// retries safe, since a batch that slipped past a failed
		// predecessor can never silently corrupt the retire order.
		return PredictResponse{}, refuse(http.StatusConflict, CodeOutOfOrder,
			"batch %d skips ahead of the session's applied cursor; replay the gap first", b.Num)
	}
	s.metrics.observeBatch(sess.PredictorName, s.sessions.index(sess.ID), delta, elapsed, depth)
	s.noteReplicaBatch(sess.ID)
	// The batch may have grown the session's pattern store past the pool
	// budget; spill colder sessions before answering.
	s.reclaimStore(sess)
	return PredictResponse{Session: b.Session, Predictor: sess.PredictorName, Created: created, Restored: restored, Stats: snap}, nil
}

// acquireSession returns the live session for id, creating it (or
// restoring it from the pattern pool's frozen tier or a checkpoint) on
// first use. requested and fingerprint are Batch's Predictor and
// Fingerprint. Specs are canonicalized before comparison, so
// "tournament(chooser_bits=12)" and "tournament" name the same session
// identity. created reports a session that entered memory on this call;
// restored that it came back warm (frozen tier or disk).
//
// The returned session is pinned against budget spilling; the caller
// must call releaseSessionRef exactly once when its batch completes.
func (s *Server) acquireSession(id, requested, fingerprint string) (sess *Session, created, restored bool, err error) {
	if requested != "" {
		// Canonicalize so parameter order and explicit defaults don't
		// fork session identities; an unresolvable spec falls through
		// unchanged and fails with the proper error in newSession.
		if canon, err := CanonicalPredictorName(requested); err == nil {
			requested = canon
		}
	}
	predictorName := requested
	if predictorName == "" {
		predictorName = s.cfg.DefaultPredictor
	}
	sess, created, err = s.sessions.getOrCreate(id, func() (*Session, error) {
		// A spilled session resumes warm from the pool's frozen tier,
		// then from its on-disk checkpoint; any restore failure (no
		// state, corrupt bytes, predictor mismatch) cold-starts.
		if rs, ok := s.resume(id, requested); ok {
			return rs, nil
		}
		// requested != "" means the client explicitly named the spec; the
		// server-chosen default is trusted configuration.
		return s.newSession(id, predictorName, fingerprint, requested != "")
	})
	if err != nil {
		return nil, false, false, err
	}
	if created {
		if sess.restored {
			s.metrics.snapshotRestores.Inc()
		} else {
			s.metrics.sessionsCreated.Inc()
		}
	} else if requested != "" && requested != sess.PredictorName {
		s.releaseSessionRef(sess)
		return nil, false, false, fmt.Errorf("session %q runs predictor %q, not %q: %w",
			id, sess.PredictorName, requested, ErrPredictorConflict)
	}
	return sess, created, created && sess.restored, nil
}

// releaseSessionRef drops the spill pin acquireSession took.
func (s *Server) releaseSessionRef(sess *Session) { sess.pins.Add(-1) }

// AcquireSlot takes a worker-pool slot exactly as Predict's admission
// does; pair with ReleaseSlot. It exists so a test can hold the pool
// full and watch batches shed.
func (s *Server) AcquireSlot(ctx context.Context) error { return s.acquireSlot(ctx) }

// ReleaseSlot returns a worker-pool slot taken by AcquireSlot.
func (s *Server) ReleaseSlot() { s.releaseSlot() }

// CloseSession removes a session and returns its final statistics. It
// deletes the ID's disk checkpoint and frozen blob even when the session
// is not in memory, so stale state cannot resurrect the ID: a cold
// session migrated away leaves nothing behind. ok is false when no such
// session is live.
func (s *Server) CloseSession(id string) (SessionFinal, bool) {
	sess := s.sessions.remove(id)
	s.removeSnapshot(id)
	s.store.Forget(poolKey(id))
	if sess == nil {
		return SessionFinal{}, false
	}
	s.dropReplica(id)
	final := sess.final()
	s.releaseSessionStore(sess)
	s.metrics.sessionsClosed.Inc()
	s.metrics.observeSessionEnd(sess)
	return final, true
}
