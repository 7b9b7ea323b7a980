package serve

import (
	"strings"
	"time"

	"llbpx/internal/patternpool"
	"llbpx/internal/snapshot"
)

// This file is the serving layer's side of the shared pattern pool
// (internal/patternpool): session construction attaches a namespace,
// session teardown releases it, and budget pressure spills the
// least-recently-used idle sessions — checkpoint to disk, freeze the
// predictor blob into the pool's frozen tier, hand the storage slabs
// back. Frozen state thaws transparently on the session's next batch
// (resume, through the same materialize as every other restore).
//
// The bit-exactness contract lives one layer down: a namespace only ever
// exposes recycled slabs as raw capacity (fully re-initialized before
// use), and frozen-blob dedup shares immutable bytes between sessions
// that declared the same workload fingerprint. Nothing here lets one
// live session observe another's patterns.

// tenantOf derives the accounting tenant from a session ID: the prefix
// before the first '/', or "default" for un-namespaced IDs.
func tenantOf(id string) string {
	if i := strings.IndexByte(id, '/'); i > 0 {
		return id[:i]
	}
	return "default"
}

func poolKey(id string) patternpool.Key {
	return patternpool.Key{Tenant: tenantOf(id), CID: id}
}

// newSession builds a session with a fresh predictor from the registry,
// attached to the server's pattern pool when the predictor supports it.
// clientSpec marks predictorName as client-supplied: LocalOnly parameters
// (e.g. bullseye's h2p_file) are then rejected, so a remote client can
// never make the server touch its filesystem through a predictor spec.
// Trusted names — the server default, snapshot/frozen/import headers,
// which themselves originate from gated creations or operator
// configuration — pass clientSpec=false.
func (s *Server) newSession(id, predictorName, fingerprint string, clientSpec bool) (*Session, error) {
	construct := NewPredictor
	if clientSpec {
		construct = NewClientPredictor
	}
	p, err := construct(predictorName)
	if err != nil {
		return nil, err
	}
	sess := &Session{
		ID:            id,
		PredictorName: predictorName,
		Fingerprint:   fingerprint,
		pred:          p,
		created:       time.Now(),
	}
	if a, ok := p.(patternpool.Attacher); ok {
		sess.ns = s.store.Attach(poolKey(id), fingerprint)
		a.AttachPatternPool(sess.ns)
	}
	sess.touch()
	return sess, nil
}

// releaseSessionStore hands a session's pattern storage back to the pool.
// The predictor's second level is empty afterwards, so this must be the
// last thing that happens to a session (after any checkpoint/freeze).
func (s *Server) releaseSessionStore(sess *Session) {
	if sess.ns == nil {
		return
	}
	sess.mu.Lock()
	if r, ok := sess.pred.(patternpool.Releaser); ok {
		r.ReleasePatternStore()
	}
	ns := sess.ns
	sess.ns = nil
	sess.mu.Unlock()
	s.store.Detach(ns)
}

// freezeSession serializes a session into the pool's frozen tier (only
// when sharing is enabled — without it the on-disk checkpoint is
// strictly better: same bytes, no budget charge). The session header and
// the predictor are frozen as two blobs, so the pool can share one body
// between sessions at identical predictor state. The session lock is
// held across the serialization, so the blobs are a consistent
// between-batches cut even for a session still reachable from the shard
// map; a caller freezing a mapped session owns the staleness problem
// (see reclaimStore).
func (s *Server) freezeSession(sess *Session) {
	if !s.cfg.StoreShare || sess.ns == nil {
		return
	}
	pred, ok := sess.pred.(snapshot.State)
	if !ok {
		return
	}
	sess.mu.Lock()
	hdr := snapshot.Encode(sess.PredictorName, sessionHeader{sess})
	body := snapshot.Encode(sess.PredictorName, pred)
	sess.mu.Unlock()
	s.store.Freeze(poolKey(sess.ID), sess.Fingerprint, hdr, body)
}

// retireSessions is eviction-side teardown for sessions already removed
// from the shard map: checkpoint to disk, freeze into the pool's shared
// tier, release the pattern storage. Order matters — freeze and
// checkpoint read predictor state that release destroys.
func (s *Server) retireSessions(sessions []*Session) {
	s.checkpointSessions(sessions)
	for _, sess := range sessions {
		s.freezeSession(sess)
		s.releaseSessionStore(sess)
	}
}

// reclaimStore brings the pool back under budget after a batch grew a
// session: first trim frozen blobs (cheap — deterministic LRU discard),
// then spill live idle sessions least-recently-used first. skip is the
// session the caller is still responding for; it is never spilled, so a
// single session larger than the whole budget degrades to "nothing else
// stays resident" rather than an eviction livelock. The reclaiming flag
// collapses concurrent callers to one spiller.
//
// The spill is checkpoint-then-unmap, never the reverse: from the
// instant a session leaves the shard map, a batch for its ID cold-starts
// unless its state is already recoverable, so the disk checkpoint (and
// under sharing, the frozen blob) is written while the victim is still
// mapped. The removal then commits only if the victim stayed untouched —
// a batch that slipped in during the spill advances lastUsed under the
// shard lock, removeIfQuiet sees it, and the eviction aborts: the
// session stays live and the just-written state is stale but harmless
// (every later removal path rewrites or deletes it; nothing consults it
// while the session is mapped).
func (s *Server) reclaimStore(skip *Session) {
	if s.store.Budget() <= 0 || !s.store.OverBudget() {
		return
	}
	if !s.reclaiming.CompareAndSwap(false, true) {
		return
	}
	defer s.reclaiming.Store(false)
	s.store.ReclaimFrozen()
	// Aborted commits (a batch raced the spill) are bounded: under hot
	// uniform traffic every victim can keep losing the race, and the next
	// over-budget batch simply tries again.
	misses := 0
	for s.store.OverBudget() && misses < 8 {
		victim, asOf, ok := s.sessions.pickLRU(skip)
		if !ok {
			return
		}
		s.checkpointSessions([]*Session{victim})
		s.freezeSession(victim)
		if !s.sessions.removeIfQuiet(victim, asOf) {
			s.store.Forget(poolKey(victim.ID)) // drop the stale frozen blob
			misses++
			continue
		}
		s.metrics.sessionsEvicted.Inc()
		s.metrics.storeSpills.Inc()
		s.releaseSessionStore(victim)
		s.metrics.observeSessionEnd(victim)
		s.store.ReclaimFrozen()
	}
}
