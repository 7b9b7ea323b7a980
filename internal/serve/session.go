package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/patternpool"
	"llbpx/internal/stats"
)

// Session is one client's live predictor. A session owns exactly one
// predictor instance and its running branch statistics; batches within a
// session execute serially (predictors are not concurrency-safe), which is
// guarded by mu. Different sessions execute fully in parallel.
type Session struct {
	// ID is the client-chosen session identifier.
	ID string
	// PredictorName is the registry name the session was created with.
	PredictorName string
	// Fingerprint is the workload fingerprint the session declared at
	// creation ("" = none). Sessions with identical fingerprints opt into
	// frozen-state sharing in the pattern pool; it is persisted in
	// checkpoints so a restored session keeps its declaration.
	Fingerprint string

	// created is when the session entered memory (cold start or snapshot
	// restore); the lifetime histogram measures from here.
	created time.Time

	// lastUsed is the unix-nano timestamp of the last batch (or creation),
	// read lock-free by the eviction janitor.
	lastUsed atomic.Int64

	// pins counts callers holding the session between acquireSession and
	// batch completion. The budget spiller only retires sessions with
	// zero pins (checked under the shard lock, where pins are taken), so
	// a session can never be spilled out from under an admitted batch —
	// the TTL janitor gets the same guarantee from its idle re-check.
	pins atomic.Int32

	// ns is the session's pattern-pool namespace (nil when the predictor
	// has no poolable second-level store).
	ns *patternpool.Namespace

	mu      sync.Mutex
	pred    core.Predictor
	stats   stats.BranchStats
	batches uint64
	// wireSeq is the highest applied binary-protocol batch number (the
	// exactly-once cursor of internal/wire's sequencing contract). Zero
	// until the first sequenced wire batch; untouched by the HTTP path.
	// Persisted in checkpoints so a restored session keeps its cursor.
	wireSeq uint64

	// restored marks a session rebuilt from an on-disk snapshot rather
	// than created cold (reported once in the creating batch's response).
	restored bool
}

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// idleSince reports whether the session has been unused since cutoff
// (unix nanos).
func (s *Session) idleSince(cutoff int64) bool { return s.lastUsed.Load() < cutoff }

// applyBatch drives the predictor over one batch of branches in retire
// order through core.RunBatch, with the same accounting as sim.Run so
// that a session's MPKI matches a local simulation of the same stream,
// subject to the sequencing verdict: batch number num applies only at
// the cursor plus one (0 always applies, leaving the cursor alone). An
// applied batch leaves the raw per-branch predictions in preds (at
// least len(batch) long); delta is its own stats delta. applied is false
// for a refused batch, which changed nothing. snap is the session's
// statistics after the verdict, taken under the same lock.
func (s *Session) applyBatch(num uint64, batch []core.Branch, preds []core.Prediction) (delta stats.BranchStats, snap SessionStats, applied bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if num != 0 && num != s.wireSeq+1 {
		return delta, s.snapshotLocked(), false
	}
	preds = preds[:len(batch)]
	core.RunBatch(s.pred, batch, preds)
	for i, b := range batch {
		delta.Instructions += b.Instructions()
		if b.Kind.Conditional() {
			delta.CondBranches++
			pred := preds[i]
			if pred.Taken != b.Taken {
				delta.Mispredicts++
			} else if pred.FromSecondLevel {
				delta.SecondLevelOK++
			}
			if pred.Taken != pred.FastTaken {
				delta.Overrides++
			}
		} else {
			delta.UncondCount++
		}
	}
	s.stats.Add(delta)
	s.batches++
	if num != 0 {
		s.wireSeq = num
	}
	s.touch()
	return delta, s.snapshotLocked(), true
}

// snapshot returns the session's accumulated statistics.
func (s *Session) snapshot() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Session) snapshotLocked() SessionStats {
	return SessionStats{
		Instructions:  s.stats.Instructions,
		CondBranches:  s.stats.CondBranches,
		Mispredicts:   s.stats.Mispredicts,
		UncondCount:   s.stats.UncondCount,
		SecondLevelOK: s.stats.SecondLevelOK,
		Batches:       s.batches,
		MPKI:          s.stats.MPKI(),
		Accuracy:      s.stats.Accuracy(),
		WireCursor:    s.wireSeq,
	}
}

// final returns the session's terminal record (for DELETE and drain).
func (s *Session) final() SessionFinal {
	return SessionFinal{ID: s.ID, Predictor: s.PredictorName, Stats: s.snapshot()}
}

// SessionStats is the wire form of a session's accumulated statistics.
type SessionStats struct {
	Instructions  uint64  `json:"instructions"`
	CondBranches  uint64  `json:"cond_branches"`
	Mispredicts   uint64  `json:"mispredicts"`
	UncondCount   uint64  `json:"uncond_branches"`
	SecondLevelOK uint64  `json:"second_level_ok"`
	Batches       uint64  `json:"batches"`
	MPKI          float64 `json:"mpki"`
	Accuracy      float64 `json:"accuracy"`
	// WireCursor is the session's exactly-once sequencing cursor (the
	// highest applied binary-protocol batch number; 0 = unsequenced). The
	// cluster gateway reads it to resume a relocated session's stream at
	// the right batch number.
	WireCursor uint64 `json:"wire_cursor,omitempty"`
}

// SessionFinal is a finished session's terminal record, emitted on DELETE
// and on graceful drain.
type SessionFinal struct {
	ID        string       `json:"id"`
	Predictor string       `json:"predictor"`
	Stats     SessionStats `json:"stats"`
}
