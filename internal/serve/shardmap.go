package serve

import (
	"sort"
	"sync"

	"llbpx/internal/hashutil"
)

// shardMap is an N-way sharded session map. Each shard has its own mutex
// so thousands of concurrent sessions touching different shards never
// serialize on one lock; the shard is picked by FNV-1a of the session ID.
type shardMap struct {
	shards []mapShard
}

type mapShard struct {
	mu sync.RWMutex
	m  map[string]*Session
}

func newShardMap(n int) *shardMap {
	if n < 1 {
		n = 1
	}
	sm := &shardMap{shards: make([]mapShard, n)}
	for i := range sm.shards {
		sm.shards[i].m = make(map[string]*Session)
	}
	return sm
}

func (sm *shardMap) shard(id string) *mapShard {
	return &sm.shards[sm.index(id)]
}

// index returns the shard number a session ID maps to (stable for the
// map's lifetime; used to label per-shard metrics).
func (sm *shardMap) index(id string) int {
	return int(hashutil.FNV1a(id) % uint64(len(sm.shards)))
}

// get returns the session for id, or nil.
func (sm *shardMap) get(id string) *Session {
	sh := sm.shard(id)
	sh.mu.RLock()
	s := sh.m[id]
	sh.mu.RUnlock()
	return s
}

// getOrCreate returns the existing session for id or inserts the one
// built by create. created reports whether create ran; a create error
// inserts nothing. The session's lastUsed is refreshed under the shard
// lock so the janitor cannot see a just-fetched session as idle, and a
// pin is taken under the same lock so the budget spiller (pickLRU /
// removeIfQuiet) cannot retire the session before its batch runs — the caller must
// release the pin when the batch completes (Server.releaseSessionRef).
func (sm *shardMap) getOrCreate(id string, create func() (*Session, error)) (s *Session, created bool, err error) {
	sh := sm.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s = sh.m[id]; s != nil {
		s.touch()
		s.pins.Add(1)
		return s, false, nil
	}
	s, err = create()
	if err != nil {
		return nil, false, err
	}
	s.pins.Add(1)
	sh.m[id] = s
	return s, true, nil
}

// put installs s as the session for id, replacing and returning any
// existing one (the admin import path's overwrite semantics).
func (sm *shardMap) put(id string, s *Session) *Session {
	sh := sm.shard(id)
	sh.mu.Lock()
	old := sh.m[id]
	sh.m[id] = s
	sh.mu.Unlock()
	return old
}

// remove deletes and returns the session for id, or nil.
func (sm *shardMap) remove(id string) *Session {
	sh := sm.shard(id)
	sh.mu.Lock()
	s := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	return s
}

// len returns the total number of live sessions.
func (sm *shardMap) len() int {
	n := 0
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// countByPredictor returns live-session counts keyed by predictor name,
// plus the total (one pass, so the two are a consistent cut per shard).
func (sm *shardMap) countByPredictor() (map[string]int, int) {
	byPred := make(map[string]int)
	total := 0
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.RLock()
		for _, s := range sh.m {
			byPred[s.PredictorName]++
			total++
		}
		sh.mu.RUnlock()
	}
	return byPred, total
}

// all returns every live session, sorted by ID for stable output.
func (sm *shardMap) all() []*Session {
	var out []*Session
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.RLock()
		for _, s := range sh.m {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// pickLRU returns (without removing) the least-recently-used session
// that is not skip and not pinned, plus the lastUsed value it was picked
// at. The caller spills its state while the session is still reachable,
// then commits the removal with removeIfQuiet — passing the same asOf so
// any batch that slipped in between (and made the spilled state stale)
// aborts the removal.
func (sm *shardMap) pickLRU(skip *Session) (victim *Session, asOf int64, ok bool) {
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.RLock()
		for _, s := range sh.m {
			if s == skip || s.pins.Load() != 0 {
				continue
			}
			if t := s.lastUsed.Load(); victim == nil || t < asOf {
				victim, asOf = s, t
			}
		}
		sh.mu.RUnlock()
	}
	return victim, asOf, victim != nil
}

// removeIfQuiet deletes s from the map only if it is still the mapped
// session for its ID, unpinned, not mid-batch (TryLock), and untouched
// since asOf. Pins and touches both happen under the shard lock
// (getOrCreate), so a session acquired for a batch — even one that ran
// to completion since the pick — can never be removed here: its acquire
// advanced lastUsed past asOf. Reports whether the removal committed.
func (sm *shardMap) removeIfQuiet(s *Session, asOf int64) bool {
	sh := sm.shard(s.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m[s.ID] != s || s.pins.Load() != 0 || s.lastUsed.Load() != asOf || !s.mu.TryLock() {
		return false
	}
	s.mu.Unlock()
	delete(sh.m, s.ID)
	return true
}

// evictIdle removes every session idle since cutoff (unix nanos) and
// returns the evicted sessions. A session whose mutex is held (a batch is
// executing) is skipped: TryLock both avoids blocking the shard and
// guarantees we never evict mid-batch.
func (sm *shardMap) evictIdle(cutoff int64) []*Session {
	var evicted []*Session
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.Lock()
		for id, s := range sh.m {
			if !s.idleSince(cutoff) || !s.mu.TryLock() {
				continue
			}
			// Re-check under the session lock: a batch may have finished
			// (and touched the session) between the check and the lock.
			if s.idleSince(cutoff) {
				delete(sh.m, id)
				evicted = append(evicted, s)
			}
			s.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	return evicted
}
