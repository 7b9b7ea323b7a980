// Package patternpool is the process-wide, memory-budgeted backing store
// for last-level pattern state. The paper's thesis is that the last-level
// pattern store is one large shared structure exploiting context
// locality; this package applies it across serving sessions: every live
// session attaches a namespace keyed by (tenant, cid) whose storage
// draws on a shared byte budget, idle sessions are frozen into compact
// deduplicated blobs, and the slab arena recycles directory storage
// between sessions so resident memory is bounded by the budget rather
// than by the number of sessions ever seen.
//
// Bit-exactness contract: a live namespace's pattern state is always a
// private view — recycled slabs are re-initialized before any of their
// state becomes live, and cross-session sharing happens only between
// frozen (immutable) blobs of sessions that declared the same workload
// fingerprint. Thawing copies the blob back out, so per-session
// prediction streams are bit-identical to a private store regardless of
// budget pressure.
package patternpool

import (
	"sync"
	"sync/atomic"
)

// Key identifies one namespace: the tenant (quota/metrics scope) and the
// session/context ID within it.
type Key struct {
	Tenant string
	CID    string
}

// Config shapes a Pool.
type Config struct {
	// Budget is the global byte budget across attached namespaces, the
	// frozen-blob cache, and the slab arena. <= 0 means unlimited.
	Budget int64
	// Sharing enables content deduplication of frozen blobs between
	// namespaces that declared the same non-empty workload fingerprint.
	Sharing bool
	// Shards is the namespace-map shard count (rounded up to a power of
	// two; defaults to 8).
	Shards int
	// OnFrozenEvict, when set, observes every frozen-blob eviction in
	// eviction order (tests use it to lock determinism). Called without
	// pool locks held; must not re-enter the pool.
	OnFrozenEvict func(Key)
}

type nsShard struct {
	mu sync.RWMutex
	m  map[Key]*Namespace
}

type slab struct {
	v     any
	bytes int64
}

type bodyEntry struct {
	data []byte
	refs int
}

type frozenEntry struct {
	key     Key
	header  []byte
	bodyKey string
	lastUse uint64
}

// Counters is a snapshot of the pool's monotonic event counters.
type Counters struct {
	Attaches        uint64
	Detaches        uint64
	Freezes         uint64
	Thaws           uint64
	SharedRestores  uint64 // thaws whose body bytes were shared with another namespace
	DedupHits       uint64 // freezes answered by an existing identical body
	FrozenEvictions uint64 // frozen blobs discarded by budget pressure
}

// Pool is the shared store. All methods are safe for concurrent use; the
// Charge/Uncharge/slab paths namespaces use during prediction are
// lock-free on the byte accounting and take only short arena locks at
// session materialize/release boundaries (never per branch).
type Pool struct {
	cfg      Config
	shardCnt int

	clock   atomic.Uint64 // logical time: all LRU/eviction order derives from this, never wall-clock
	provSeq atomic.Uint64

	attached   atomic.Int64
	arenaBytes atomic.Int64
	frozBytes  atomic.Int64
	nsCount    atomic.Int64

	attaches   atomic.Uint64
	detaches   atomic.Uint64
	freezes    atomic.Uint64
	thaws      atomic.Uint64
	sharedRest atomic.Uint64
	dedupHits  atomic.Uint64
	frozEvicts atomic.Uint64

	shards []nsShard

	tenantMu sync.Mutex
	tenants  map[string]*atomic.Int64

	arenaMu  sync.Mutex
	arena    map[uint64][]slab
	arenaCap int64

	frozenMu sync.Mutex
	frozen   map[Key]*frozenEntry
	bodies   map[string]*bodyEntry
}

// New builds a pool for cfg.
func New(cfg Config) *Pool {
	n := cfg.Shards
	if n <= 0 {
		n = 8
	}
	shardCnt := 1
	for shardCnt < n {
		shardCnt *= 2
	}
	p := &Pool{
		cfg:      cfg,
		shardCnt: shardCnt,
		shards:   make([]nsShard, shardCnt),
		tenants:  map[string]*atomic.Int64{},
		arena:    map[uint64][]slab{},
		frozen:   map[Key]*frozenEntry{},
		bodies:   map[string]*bodyEntry{},
	}
	for i := range p.shards {
		p.shards[i].m = map[Key]*Namespace{}
	}
	p.arenaCap = 64 << 20
	if cfg.Budget > 0 {
		p.arenaCap = cfg.Budget / 4
	}
	return p
}

func (p *Pool) shard(h uint64) *nsShard {
	return &p.shards[h&uint64(p.shardCnt-1)]
}

func (p *Pool) tenantGauge(tenant string) *atomic.Int64 {
	p.tenantMu.Lock()
	g := p.tenants[tenant]
	if g == nil {
		g = new(atomic.Int64)
		p.tenants[tenant] = g
	}
	p.tenantMu.Unlock()
	return g
}

// Attach creates (or replaces) the namespace for k. The returned
// namespace is the handle predictors charge their storage against.
func (p *Pool) Attach(k Key, fingerprint string) *Namespace {
	ns := &Namespace{
		pool:   p,
		key:    k,
		hash:   k.Hash(),
		prov:   p.provSeq.Add(1),
		tenant: p.tenantGauge(k.Tenant),
	}
	ns.fp.Store(fingerprint)
	sh := p.shard(ns.hash)
	sh.mu.Lock()
	prev := sh.m[k]
	sh.m[k] = ns
	sh.mu.Unlock()
	if prev != nil {
		p.dropAccounting(prev)
	}
	p.nsCount.Add(1)
	p.attaches.Add(1)
	return ns
}

// Lookup returns the live namespace for k, or nil.
func (p *Pool) Lookup(k Key) *Namespace {
	sh := p.shard(k.Hash())
	sh.mu.RLock()
	ns := sh.m[k]
	sh.mu.RUnlock()
	return ns
}

// Detach removes ns from the pool and drops any bytes still charged to
// it. Callers normally release the predictor's storage (returning slabs
// to the arena) first; Detach is the accounting backstop either way.
func (p *Pool) Detach(ns *Namespace) {
	if ns == nil || !ns.detached.CompareAndSwap(false, true) {
		return
	}
	sh := p.shard(ns.hash)
	sh.mu.Lock()
	if sh.m[ns.key] == ns {
		delete(sh.m, ns.key)
	}
	sh.mu.Unlock()
	p.dropAccounting(ns)
	p.nsCount.Add(-1)
	p.detaches.Add(1)
}

func (p *Pool) dropAccounting(ns *Namespace) {
	if b := ns.bytes.Swap(0); b != 0 {
		p.attached.Add(-b)
		ns.tenant.Add(-b)
	}
}

// getSlab pops a recycled slab of the given class, if any.
func (p *Pool) getSlab(class uint64) (any, bool) {
	p.arenaMu.Lock()
	list := p.arena[class]
	if len(list) == 0 {
		p.arenaMu.Unlock()
		return nil, false
	}
	s := list[len(list)-1]
	p.arena[class] = list[:len(list)-1]
	p.arenaBytes.Add(-s.bytes)
	p.arenaMu.Unlock()
	return s.v, true
}

// putSlab retains a released slab for reuse unless retention would
// overrun the arena cap or the global budget (then it is dropped for GC).
func (p *Pool) putSlab(class uint64, v any, bytes int64) {
	if bytes <= 0 {
		return
	}
	if p.arenaBytes.Load()+bytes > p.arenaCap {
		return
	}
	if p.cfg.Budget > 0 && p.TotalBytes()+bytes > p.cfg.Budget {
		return
	}
	p.arenaMu.Lock()
	p.arena[class] = append(p.arena[class], slab{v: v, bytes: bytes})
	p.arenaBytes.Add(bytes)
	p.arenaMu.Unlock()
}

// bodyKeyFor scopes dedup: bodies are shared only between namespaces
// declaring the same non-empty fingerprint (and only when sharing is
// on); everything else gets a per-namespace body that can never match.
func (p *Pool) bodyKeyFor(k Key, fingerprint string, body []byte) string {
	if p.cfg.Sharing && fingerprint != "" {
		sum := bodySum(body)
		return "fp\x00" + fingerprint + "\x00" + string(sum[:])
	}
	return "ns\x00" + string(AppendEncode(nil, k))
}

// Freeze stores an immutable (header, body) blob for k, replacing any
// previous blob, then trims the frozen cache back under budget. The
// caller must not mutate header/body afterwards.
func (p *Pool) Freeze(k Key, fingerprint string, header, body []byte) {
	bk := p.bodyKeyFor(k, fingerprint, body)
	var evicted []Key
	p.frozenMu.Lock()
	if old := p.frozen[k]; old != nil {
		p.releaseFrozenLocked(old)
	}
	be := p.bodies[bk]
	if be != nil && p.cfg.Sharing {
		be.refs++
		p.dedupHits.Add(1)
	} else {
		be = &bodyEntry{data: body, refs: 1}
		p.bodies[bk] = be
		p.frozBytes.Add(int64(len(body)))
	}
	p.frozen[k] = &frozenEntry{key: k, header: header, bodyKey: bk, lastUse: p.clock.Add(1)}
	p.frozBytes.Add(int64(len(header)))
	p.freezes.Add(1)
	evicted = p.reclaimFrozenLocked()
	p.frozenMu.Unlock()
	p.notifyEvicted(evicted)
}

// Thaw removes and returns the frozen blob for k. ok is false when no
// blob is cached (evicted or never frozen).
func (p *Pool) Thaw(k Key) (header, body []byte, ok bool) {
	p.frozenMu.Lock()
	e := p.frozen[k]
	if e == nil {
		p.frozenMu.Unlock()
		return nil, nil, false
	}
	be := p.bodies[e.bodyKey]
	body = be.data
	if be.refs > 1 {
		p.sharedRest.Add(1)
	}
	p.releaseFrozenLocked(e)
	p.thaws.Add(1)
	p.frozenMu.Unlock()
	return e.header, body, true
}

// Forget drops any frozen blob for k without restoring it (session
// closed for good).
func (p *Pool) Forget(k Key) {
	p.frozenMu.Lock()
	if e := p.frozen[k]; e != nil {
		p.releaseFrozenLocked(e)
	}
	p.frozenMu.Unlock()
}

// releaseFrozenLocked unlinks e and unrefs its body. Caller holds
// frozenMu.
func (p *Pool) releaseFrozenLocked(e *frozenEntry) {
	delete(p.frozen, e.key)
	p.frozBytes.Add(-int64(len(e.header)))
	if be := p.bodies[e.bodyKey]; be != nil {
		be.refs--
		if be.refs <= 0 {
			delete(p.bodies, e.bodyKey)
			p.frozBytes.Add(-int64(len(be.data)))
		}
	}
}

// ReclaimFrozen trims the frozen cache until the pool is back under
// budget (or the cache is empty). Eviction order is deterministic:
// least-recent logical use first, key order breaking ties.
func (p *Pool) ReclaimFrozen() {
	p.frozenMu.Lock()
	evicted := p.reclaimFrozenLocked()
	p.frozenMu.Unlock()
	p.notifyEvicted(evicted)
}

func (p *Pool) reclaimFrozenLocked() []Key {
	if p.cfg.Budget <= 0 {
		return nil
	}
	var evicted []Key
	for p.TotalBytes() > p.cfg.Budget && len(p.frozen) > 0 {
		var victim *frozenEntry
		for _, e := range p.frozen {
			if victim == nil || e.lastUse < victim.lastUse ||
				(e.lastUse == victim.lastUse && keyLess(e.key, victim.key)) {
				victim = e
			}
		}
		p.releaseFrozenLocked(victim)
		p.frozEvicts.Add(1)
		evicted = append(evicted, victim.key)
	}
	return evicted
}

func (p *Pool) notifyEvicted(keys []Key) {
	if p.cfg.OnFrozenEvict == nil {
		return
	}
	for _, k := range keys {
		p.cfg.OnFrozenEvict(k)
	}
}

func keyLess(a, b Key) bool {
	if a.Tenant != b.Tenant {
		return a.Tenant < b.Tenant
	}
	return a.CID < b.CID
}

// Budget returns the configured byte budget (<= 0 means unlimited).
func (p *Pool) Budget() int64 { return p.cfg.Budget }

// Sharing reports whether fingerprint-scoped blob dedup is enabled.
func (p *Pool) Sharing() bool { return p.cfg.Sharing }

// AttachedBytes is the bytes charged by live namespaces.
func (p *Pool) AttachedBytes() int64 { return p.attached.Load() }

// FrozenBytes is the bytes held by the frozen-blob cache.
func (p *Pool) FrozenBytes() int64 { return p.frozBytes.Load() }

// ArenaBytes is the bytes retained by the recycled-slab arena.
func (p *Pool) ArenaBytes() int64 { return p.arenaBytes.Load() }

// TotalBytes is the pool's resident footprint: attached + frozen + arena.
func (p *Pool) TotalBytes() int64 {
	return p.attached.Load() + p.frozBytes.Load() + p.arenaBytes.Load()
}

// OverBudget reports whether the resident footprint exceeds the budget.
func (p *Pool) OverBudget() bool {
	return p.cfg.Budget > 0 && p.TotalBytes() > p.cfg.Budget
}

// Namespaces returns the number of live namespaces.
func (p *Pool) Namespaces() int { return int(p.nsCount.Load()) }

// FrozenCount returns the number of cached frozen blobs.
func (p *Pool) FrozenCount() int {
	p.frozenMu.Lock()
	n := len(p.frozen)
	p.frozenMu.Unlock()
	return n
}

// TenantBytes returns a copy of the per-tenant attached-byte gauges.
// Tenants persist after their namespaces detach (gauge drops to zero)
// so dashboards keep a stable label set.
func (p *Pool) TenantBytes() map[string]int64 {
	p.tenantMu.Lock()
	out := make(map[string]int64, len(p.tenants))
	for t, g := range p.tenants {
		out[t] = g.Load()
	}
	p.tenantMu.Unlock()
	return out
}

// CountersSnapshot returns the monotonic event counters.
func (p *Pool) CountersSnapshot() Counters {
	return Counters{
		Attaches:        p.attaches.Load(),
		Detaches:        p.detaches.Load(),
		Freezes:         p.freezes.Load(),
		Thaws:           p.thaws.Load(),
		SharedRestores:  p.sharedRest.Load(),
		DedupHits:       p.dedupHits.Load(),
		FrozenEvictions: p.frozEvicts.Load(),
	}
}

// Namespace is one session's handle on the pool: the accounting scope
// its directory storage is charged to and the door to the slab arena.
type Namespace struct {
	pool     *Pool
	key      Key
	hash     uint64
	prov     uint64
	tenant   *atomic.Int64
	bytes    atomic.Int64
	fp       atomic.Value // string
	detached atomic.Bool
}

// Key returns the namespace key.
func (ns *Namespace) Key() Key { return ns.key }

// ProvenanceID is a pool-unique ID stamped on pattern state owned by
// this namespace; the slowcheck shadow mode asserts no session ever
// reads state stamped by another namespace.
func (ns *Namespace) ProvenanceID() uint64 { return ns.prov }

// Bytes returns the bytes currently charged to this namespace.
func (ns *Namespace) Bytes() int64 { return ns.bytes.Load() }

// Fingerprint returns the declared workload fingerprint ("" = none).
func (ns *Namespace) Fingerprint() string {
	s, _ := ns.fp.Load().(string)
	return s
}

// SetFingerprint updates the declared workload fingerprint (e.g. after a
// snapshot restore carries the original declaration forward).
func (ns *Namespace) SetFingerprint(fp string) { ns.fp.Store(fp) }

// Charge adds n bytes to the namespace's accounting (atomic, lock-free).
func (ns *Namespace) Charge(n int64) {
	if n == 0 {
		return
	}
	ns.bytes.Add(n)
	ns.tenant.Add(n)
	ns.pool.attached.Add(n)
}

// Uncharge removes n bytes from the namespace's accounting.
func (ns *Namespace) Uncharge(n int64) { ns.Charge(-n) }

// GetSlab pops a recycled storage slab of the given class from the
// shared arena, if one is available. The caller owns re-initialization.
func (ns *Namespace) GetSlab(class uint64) (any, bool) { return ns.pool.getSlab(class) }

// PutSlab returns a storage slab to the shared arena for reuse by the
// next namespace (dropped when retention would overrun the budget).
func (ns *Namespace) PutSlab(class uint64, v any, bytes int64) { ns.pool.putSlab(class, v, bytes) }
