package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"llbpx/internal/core"
)

// Transport SPI ------------------------------------------------------------
//
// The Server's session, admission, drain, and checkpoint machinery is
// transport-agnostic; the HTTP mux is just its oldest frontend. The
// methods in this file are the exported surface a second frontend — the
// binary streaming listener in internal/wire — drives. They are thin
// wrappers over the same private paths the HTTP handlers use, so both
// protocols share one drain barrier, one worker pool, one shard map, and
// one metrics registry, and a session is reachable from either protocol
// under the same ID.

// BeginBatch registers an accepted batch with the drain barrier. It
// reports false when the server is draining — the caller must refuse the
// batch (the HTTP path answers 503, the wire path a "draining" NACK).
// Every successful BeginBatch must be paired with EndBatch.
func (s *Server) BeginBatch() bool {
	if !s.beginBatch() {
		s.metrics.rejected.Inc()
		return false
	}
	return true
}

// EndBatch releases a batch accepted by BeginBatch.
func (s *Server) EndBatch() { s.endBatch() }

// AcquireSlot takes a worker-pool slot under the admission policy: it
// gives up after AdmitTimeout with ErrOverloaded (the caller sheds the
// batch — state untouched, always safe to resend) or when ctx is
// cancelled. Pair with ReleaseSlot.
func (s *Server) AcquireSlot(ctx context.Context) error {
	err := s.acquireSlot(ctx)
	if errors.Is(err, ErrOverloaded) {
		s.metrics.shed.Inc()
	}
	return err
}

// ReleaseSlot returns a worker-pool slot taken by AcquireSlot.
func (s *Server) ReleaseSlot() { s.releaseSlot() }

// PoolDepth reports how many worker-pool slots are currently held — the
// queue-depth sample transports record at batch admission.
func (s *Server) PoolDepth() int { return len(s.pool) }

// RetryAfter is the server's advisory resend delay for shed batches (the
// HTTP path's Retry-After header, the wire path's NACK field).
func (s *Server) RetryAfter() time.Duration {
	if s.cfg.AdmitTimeout > 0 {
		return s.cfg.AdmitTimeout
	}
	return time.Second
}

// AcquireSession returns the live session for id, creating it (or
// restoring it from the pattern pool's frozen tier or a checkpoint) on
// first use. requested is the client's explicitly named predictor spec:
// "" accepts whatever exists (or the server default for a fresh session),
// and a non-empty spec that conflicts with an existing session's
// predictor fails with ErrPredictorConflict. Specs are canonicalized
// before comparison, so "tournament(chooser_bits=12)" and "tournament"
// name the same session identity. fingerprint is the workload
// fingerprint a freshly created session declares ("" = none; ignored for
// existing sessions). created reports a session that entered memory on
// this call; restored that it came back warm (frozen tier or disk).
//
// The returned session is pinned against budget spilling; the caller
// must call ReleaseSessionRef exactly once when its batch completes.
func (s *Server) AcquireSession(id, requested, fingerprint string) (sess *Session, created, restored bool, err error) {
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
		s.ReleaseSessionRef(sess)
		return nil, false, false, fmt.Errorf("session %q runs predictor %q, not %q: %w",
			id, sess.PredictorName, requested, ErrPredictorConflict)
	}
	return sess, created, created && sess.restored, nil
}

// ReleaseSessionRef drops the spill pin AcquireSession took. Call exactly
// once per successful AcquireSession, after the batch (or whatever the
// session was acquired for) completes.
func (s *Server) ReleaseSessionRef(sess *Session) { sess.pins.Add(-1) }

// ReclaimStore brings the shared pattern pool back under its byte budget
// by trimming frozen blobs and spilling least-recently-used idle
// sessions. skip (may be nil) is never spilled — pass the session the
// caller is still responding for. Transports call this after a batch
// completes; it is a cheap no-op while the pool is within budget.
func (s *Server) ReclaimStore(skip *Session) { s.reclaimStore(skip) }

// WireStatus is ExecuteWireBatch's sequencing verdict.
type WireStatus int

const (
	// WireApplied: the batch executed and advanced the session's cursor.
	WireApplied WireStatus = iota
	// WireDuplicate: the batch number was already applied — the resend of
	// a batch whose first response was lost. Nothing re-executed; the
	// caller answers with the session's current statistics so the
	// exactly-once retry contract holds.
	WireDuplicate
	// WireOutOfOrder: the batch number skips ahead of the cursor. Nothing
	// executed; the caller NACKs so the client replays the gap first.
	// This is what makes pipelined retries safe: a batch that slipped
	// past a failed predecessor is refused loudly instead of silently
	// corrupting the stream's retire order.
	WireOutOfOrder
)

// ExecuteWireBatch runs one binary-protocol batch against sess under its
// sequencing contract. batchNum is the client's per-session monotonically
// increasing batch number (1-based); 0 opts out of sequencing and always
// applies. On WireApplied the raw per-branch predictions are copied into
// preds (which must hold at least len(batch) elements) and the metrics
// pipeline records the batch; on WireDuplicate and WireOutOfOrder no
// state changes. snap is the session's statistics snapshot taken under
// the session lock in every case. The caller holds a worker-pool slot.
func (s *Server) ExecuteWireBatch(sess *Session, batchNum uint64, batch []core.Branch, preds []core.Prediction, depth int) (WireStatus, SessionStats) {
	s.cfg.Faults.Delay(FaultBatchExec)
	start := time.Now()
	sess.mu.Lock()
	if batchNum != 0 {
		switch {
		case batchNum <= sess.wireSeq:
			snap := sess.snapshotLocked()
			sess.mu.Unlock()
			return WireDuplicate, snap
		case batchNum > sess.wireSeq+1:
			snap := sess.snapshotLocked()
			sess.mu.Unlock()
			return WireOutOfOrder, snap
		}
	}
	raw, delta := sess.applyBatchLocked(batch)
	copy(preds, raw)
	if batchNum != 0 {
		sess.wireSeq = batchNum
	}
	snap := sess.snapshotLocked()
	sess.mu.Unlock()
	s.metrics.observeBatch(sess.PredictorName, s.sessions.index(sess.ID), delta, time.Since(start), depth)
	s.noteReplicaBatch(sess.ID)
	return WireApplied, snap
}

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

// FireFault fires the named fault-injection site on the server's
// injector (a no-op without one). Transports use it for their own sites
// — internal/wire's read/write sites run through here so one -inject
// spec arms both protocols.
func (s *Server) FireFault(site string) error { return s.cfg.Faults.Fire(site) }
