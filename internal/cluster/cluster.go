// Package cluster is the serving stack's horizontal tier: a stateless
// gateway (cmd/llbpgw) that spreads sessions across N llbpd backends and
// moves them between backends without losing bit-exactness.
//
// Placement is a weighted consistent-hash ring over session IDs
// (internal/hashutil.Ring): every gateway that knows the membership
// computes the same owner, no coordination or persisted state. The
// gateway speaks the binary wire protocol (internal/wire) downstream and
// exposes both the HTTP API and the wire protocol upstream, so existing
// clients work unchanged whether they point at one llbpd or at the
// cluster.
//
// Sessions are sticky because predictor state is per-workload learned
// history, not a stateless cache: when membership changes (backend join,
// graceful leave, death), affected sessions migrate as
// drain-checkpoint → transfer → warm-restore. The gateway quiesces a
// session (its per-session mutex covers both forwarding and migration,
// so a migration never races a batch), exports its checkpoint over the
// llbpd admin transfer API — the bit-identical snapshot layer, CRC and
// all — imports it on the new owner, and resumes the stream there. The
// exactly-once batch cursor rides the checkpoint, so in-flight resends
// across the move are answered as duplicates instead of double-applied.
// Corrupt or torn transfers are rejected by the import side's integrity
// checks and retried with a fresh export; a backend that died without a
// goodbye is routed around, with warm state following through the shared
// snapshot directory when one is configured.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"llbpx/internal/faults"
	"llbpx/internal/hashutil"
	"llbpx/internal/serve"
	"llbpx/internal/wire"
)

// Fault-injection site names the cluster tier fires (internal/faults).
const (
	// FaultForward fires before each downstream batch forward; an injected
	// error is handled exactly like a network partition between gateway
	// and backend — the attempt fails, the failure counts toward the
	// backend's death verdict, and the forward loop retries.
	FaultForward = "cluster.forward"
	// FaultTransfer fires before each migration attempt (error rules) and
	// wraps the exported checkpoint bytes (partial-write rules), so both a
	// partitioned transfer and a torn blob are injectable. A failed
	// attempt re-exports from scratch; the import side's CRC rejects torn
	// bytes before anything is installed.
	FaultTransfer = "cluster.transfer"
	// FaultReplicate fires on the primary before each checkpoint ship to
	// the standby (error rules) and tears the shipped bytes under
	// partial-write rules. The site lives in internal/replica; llbpd
	// serves it, so one -inject spec arms it on every backend.
	FaultReplicate = serve.FaultReplicate
	// FaultPromote fires before each standby-promotion attempt during
	// failover; an injected error is retried inside the promotion loop
	// (a promotion abandoned too early degrades to a cold reroute).
	FaultPromote = "cluster.promote"
)

// Backend identifies one llbpd instance the gateway can route to.
type Backend struct {
	// Name is the stable membership identity — it alone positions the
	// backend on the hash ring, so renaming a backend moves keys but
	// re-addressing it does not.
	Name string `json:"name"`
	// WireAddr is the llbpd binary-protocol listener (host:port); the
	// gateway forwards batches there.
	WireAddr string `json:"wire_addr"`
	// HTTPURL is the llbpd HTTP base URL; the gateway uses it for the
	// admin transfer API and cursor probes.
	HTTPURL string `json:"http_url"`
	// Weight scales the backend's share of the key space (default 1).
	Weight int `json:"weight,omitempty"`
}

// Config parameterizes a Gateway. The zero value plus at least one
// backend is usable; every field has a default applied by New.
type Config struct {
	// Backends is the initial membership.
	Backends []Backend
	// VNodes is the ring's points per weight unit (default 64).
	VNodes int
	// MaxBatch is the largest accepted batch, in branches (default 65536).
	MaxBatch int
	// ForwardAttempts bounds how many times one batch is (re)forwarded
	// across failures, reroutes, and retryable NACKs (default 8).
	ForwardAttempts int
	// ForwardTimeout bounds each individual downstream attempt
	// (default 10s).
	ForwardTimeout time.Duration
	// RetryBase / RetryMax shape the forward loop's exponential backoff
	// (defaults 25ms / 1s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// HealthEvery is the liveness probe interval (default 2s; negative
	// disables the prober — tests drive health transitions directly).
	HealthEvery time.Duration
	// HealthFails is how many consecutive failures (probe or forward)
	// declare a backend dead (default 3).
	HealthFails int
	// TransferAttempts bounds migration retries per relocation; each
	// attempt re-exports the checkpoint (default 4).
	TransferAttempts int
	// Faults optionally injects deterministic faults at FaultForward and
	// FaultTransfer. Nil disables injection.
	Faults *faults.Injector
	// Replicate enables hot-standby session replication: each session's
	// primary ships incremental checkpoints to the next distinct backend
	// on the ring, and a death verdict promotes that standby instead of
	// cold-rerouting (see replicate.go).
	Replicate bool
	// ReplayTail bounds the per-session replay buffer of recently applied
	// batches the gateway retains for post-promotion catch-up (default
	// 64). It must be at least the primaries' ship cadence
	// (serve.Config.ReplicaEvery), or failover cannot bridge the
	// unshipped gap exactly.
	ReplayTail int
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 65536
	}
	if c.ForwardAttempts <= 0 {
		c.ForwardAttempts = 8
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 10 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.HealthEvery == 0 {
		c.HealthEvery = 2 * time.Second
	}
	if c.HealthFails <= 0 {
		c.HealthFails = 3
	}
	if c.TransferAttempts <= 0 {
		c.TransferAttempts = 4
	}
	if c.ReplayTail <= 0 {
		c.ReplayTail = 64
	}
	return c
}

// backendState is one backend's runtime: its clients and health verdict.
type backendState struct {
	b  Backend
	wc *wire.Client  // downstream wire client — deliberately unarmed: the forward loop is the single retry authority
	hc *serve.Client // admin transfer + cursor probes

	alive atomic.Bool
	// leaving marks a backend that announced drain (or was removed by the
	// operator): the prober must not resurrect it just because it still
	// answers pings while draining.
	leaving atomic.Bool
	fails   atomic.Int32 // consecutive failures toward the death verdict
	// nextProbe (unix nanos) gates the health prober: after consecutive
	// probe failures the backend is skipped until this deadline, backing
	// off exponentially so a dead backend is not hammered every tick.
	nextProbe atomic.Int64
}

// gwSession is the gateway's routing record for one session. mu is the
// session's quiesce point: it is held across a forward and across a
// migration, so the two can never interleave and a relocated session's
// checkpoint is always a consistent between-batches cut.
type gwSession struct {
	id string

	mu        sync.Mutex
	owner     string // backend name; "" until the first batch routes
	predictor string // learned from the first acknowledged batch
	// next is the next gateway-assigned batch number for upstream callers
	// that do not sequence their own batches (HTTP). 0 = unknown: probe
	// the owner's cursor before the next send.
	next uint64
	// last is the session's most recent downstream statistics, used to
	// absorb a lost close acknowledgement exactly like wire.Stream does.
	last    wire.WireStats
	touched bool // last is meaningful
	closed  bool

	// Replication state (Config.Replicate; see replicate.go). epoch is the
	// session's fence epoch: ships and transfers are stamped with it, and
	// each promotion bumps it, fencing off the previous primary's line of
	// history. replicaVersion is the ring version the standby assignment
	// was computed at (0 = unassigned); tail is the bounded replay buffer
	// of recently acknowledged batches.
	epoch          uint64
	standby        string
	replicaVersion uint64
	tail           []tailEntry
}

// Gateway routes sessions over the backend set. Create with New; it
// implements http.Handler (the HTTP frontend) and ServeWire (the binary
// frontend). Call Close to release everything.
type Gateway struct {
	cfg     Config
	metrics *gwMetrics
	mux     *http.ServeMux
	// retry shapes every forward and transfer retry loop: exponential
	// from RetryBase, capped at RetryMax, jittered ±20%.
	retry serve.RetryPolicy

	mu          sync.Mutex
	ring        *hashutil.Ring
	backends    map[string]*backendState
	sessions    map[string]*gwSession
	ringVersion uint64
	closed      bool

	// rebalanceMu serializes rebalance passes (membership changes can
	// pile up; each pass re-reads the current ring, so running them one
	// at a time is both correct and enough).
	rebalanceMu sync.Mutex

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	connMu sync.Mutex
	conns  map[*gwConn]struct{}
}

// New builds a Gateway over the configured backends and starts its
// health prober.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		cfg:      cfg,
		retry:    serve.RetryPolicy{BaseDelay: cfg.RetryBase, MaxDelay: cfg.RetryMax, Jitter: 0.2},
		ring:     hashutil.NewRing(cfg.VNodes),
		backends: make(map[string]*backendState),
		sessions: make(map[string]*gwSession),
		conns:    make(map[*gwConn]struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
	g.metrics = newGwMetrics(g)
	g.mux = g.buildMux()
	for _, b := range cfg.Backends {
		if err := g.AddBackend(b); err != nil {
			cancel()
			return nil, err
		}
	}
	if cfg.HealthEvery > 0 {
		g.wg.Add(1)
		go g.prober()
	}
	return g, nil
}

// AddBackend joins a backend to the membership (idempotent for a backend
// already present under the same name) and rebalances sessions onto it
// in the background.
func (g *Gateway) AddBackend(b Backend) error {
	if b.Name == "" || b.WireAddr == "" || b.HTTPURL == "" {
		return fmt.Errorf("cluster: backend needs name, wire_addr and http_url (got %+v)", b)
	}
	if b.Weight < 1 {
		b.Weight = 1
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return fmt.Errorf("cluster: gateway closed")
	}
	if old := g.backends[b.Name]; old != nil && old.b == b && old.alive.Load() {
		g.mu.Unlock()
		return nil
	}
	bs := &backendState{b: b, wc: wire.NewClient(b.WireAddr), hc: serve.NewClient(b.HTTPURL, nil)}
	bs.alive.Store(true)
	if old := g.backends[b.Name]; old != nil {
		old.wc.Close()
	}
	g.backends[b.Name] = bs
	g.ring.Add(b.Name, b.Weight)
	g.ringVersion++
	g.mu.Unlock()
	g.spawnRebalance()
	return nil
}

// RemoveBackend gracefully retires a backend: it leaves the ring
// immediately and every session it owns is migrated away live before the
// call returns (the backend must still be up to donate its state; a dead
// backend needs no removal — the death verdict already rerouted around
// it).
func (g *Gateway) RemoveBackend(name string) error {
	g.mu.Lock()
	bs := g.backends[name]
	if bs == nil {
		g.mu.Unlock()
		return fmt.Errorf("cluster: no backend %q", name)
	}
	bs.leaving.Store(true)
	if g.ring.Contains(name) {
		g.ring.Remove(name)
		g.ringVersion++
	}
	g.mu.Unlock()
	g.rebalance()
	return nil
}

// backend returns the named backend's state, or nil.
func (g *Gateway) backend(name string) *backendState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.backends[name]
}

// session returns the routing record for id, creating it when create is
// set.
func (g *Gateway) session(id string, create bool) *gwSession {
	g.mu.Lock()
	defer g.mu.Unlock()
	gs := g.sessions[id]
	if gs == nil && create {
		gs = &gwSession{id: id}
		g.sessions[id] = gs
	}
	return gs
}

// forget drops a closed session's routing record.
func (g *Gateway) forget(id string) {
	g.mu.Lock()
	delete(g.sessions, id)
	g.mu.Unlock()
}

// LookupOwner returns the backend name the ring currently assigns to
// key ("" when no backend is live). Exposed for placement diagnostics
// and movement assertions.
func (g *Gateway) LookupOwner(key string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ring.Lookup(key)
}

// RingVersion increments on every membership change.
func (g *Gateway) RingVersion() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ringVersion
}

// noteFailure records one failed interaction with a backend; reaching
// HealthFails consecutive failures declares it dead.
func (g *Gateway) noteFailure(bs *backendState) {
	if int(bs.fails.Add(1)) >= g.cfg.HealthFails {
		g.markDead(bs)
	}
}

// markDead removes a backend from the ring and rebalances its sessions
// away. Idempotent per aliveness transition.
func (g *Gateway) markDead(bs *backendState) {
	if !bs.alive.CompareAndSwap(true, false) {
		return
	}
	g.mu.Lock()
	if g.ring.Contains(bs.b.Name) {
		g.ring.Remove(bs.b.Name)
		g.ringVersion++
	}
	g.mu.Unlock()
	g.spawnRebalance()
}

// markAlive revives a backend the prober reached again — unless it is
// leaving (a draining backend still answers pings; resurrection would
// flap the ring).
func (g *Gateway) markAlive(bs *backendState) {
	if bs.leaving.Load() {
		return
	}
	if !bs.alive.CompareAndSwap(false, true) {
		return
	}
	bs.fails.Store(0)
	g.mu.Lock()
	g.ring.Add(bs.b.Name, bs.b.Weight)
	g.ringVersion++
	g.mu.Unlock()
	g.spawnRebalance()
}

// spawnRebalance runs a rebalance pass in the background, tracked by the
// gateway's waitgroup so Close can wait it out.
func (g *Gateway) spawnRebalance() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.wg.Add(1)
	g.mu.Unlock()
	go func() {
		defer g.wg.Done()
		g.rebalance()
	}()
}

// rebalance walks every known session and relocates the ones whose ring
// owner changed. Sessions are visited one at a time under their own
// mutex, so each migration is a quiesced, consistent move while
// unaffected sessions keep streaming.
func (g *Gateway) rebalance() {
	g.rebalanceMu.Lock()
	defer g.rebalanceMu.Unlock()
	g.mu.Lock()
	list := make([]*gwSession, 0, len(g.sessions))
	for _, gs := range g.sessions {
		list = append(list, gs)
	}
	g.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
	for _, gs := range list {
		select {
		case <-g.ctx.Done():
			return
		default:
		}
		gs.mu.Lock()
		if !gs.closed && gs.owner != "" {
			g.ownerLocked(g.ctx, gs)
		}
		gs.mu.Unlock()
	}
}

// Close tears the gateway down: the prober and rebalancers stop, wire
// frontend connections are closed, and downstream clients released.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	g.cancel()
	g.connMu.Lock()
	for c := range g.conns {
		c.die()
	}
	g.connMu.Unlock()
	g.wg.Wait()
	g.mu.Lock()
	for _, bs := range g.backends {
		bs.wc.Close()
	}
	g.mu.Unlock()
}

// BackendStatus is one backend's membership record in ClusterStats.
type BackendStatus struct {
	Backend
	Alive    bool  `json:"alive"`
	Leaving  bool  `json:"leaving,omitempty"`
	Fails    int32 `json:"fails,omitempty"`
	Sessions int   `json:"sessions"`
}

// ClusterStats is the gateway's /v1/stats shape. It is deliberately not
// the llbpd StatsSnapshot: the gateway has no predictor state, only
// routing state.
type ClusterStats struct {
	UptimeSec       float64         `json:"uptime_sec"`
	Backends        []BackendStatus `json:"backends"`
	SessionsKnown   int             `json:"sessions_known"`
	RingVersion     uint64          `json:"ring_version"`
	RoutedBatches   uint64          `json:"routed_batches"`
	ForwardErrors   uint64          `json:"forward_errors"`
	ForwardRetries  uint64          `json:"forward_retries"`
	Reroutes        uint64          `json:"reroutes"`
	CursorResyncs   uint64          `json:"cursor_resyncs"`
	Migrations      uint64          `json:"migrations"`
	MigrationErrors uint64          `json:"migration_errors"`
	WireConns       uint64          `json:"wire_conns"`
	Promotions      uint64          `json:"promotions"`
	PromotionErrors uint64          `json:"promotion_errors"`
	ReplicaSyncs    uint64          `json:"replica_syncs"`
	ReplayedBatches uint64          `json:"replayed_batches"`
}

// Stats assembles the gateway-wide snapshot.
func (g *Gateway) Stats() ClusterStats {
	g.mu.Lock()
	perOwner := make(map[string]int)
	for _, gs := range g.sessions {
		perOwner[gs.owner]++
	}
	backends := make([]BackendStatus, 0, len(g.backends))
	for _, bs := range g.backends {
		backends = append(backends, BackendStatus{
			Backend:  bs.b,
			Alive:    bs.alive.Load(),
			Leaving:  bs.leaving.Load(),
			Fails:    bs.fails.Load(),
			Sessions: perOwner[bs.b.Name],
		})
	}
	sessions := len(g.sessions)
	version := g.ringVersion
	g.mu.Unlock()
	sort.Slice(backends, func(i, j int) bool { return backends[i].Name < backends[j].Name })
	m := g.metrics
	return ClusterStats{
		UptimeSec:       time.Since(m.start).Seconds(),
		Backends:        backends,
		SessionsKnown:   sessions,
		RingVersion:     version,
		RoutedBatches:   m.routedBatches.Value(),
		ForwardErrors:   m.forwardErrors.Value(),
		ForwardRetries:  m.forwardRetries.Value(),
		Reroutes:        m.reroutes.Value(),
		CursorResyncs:   m.cursorResyncs.Value(),
		Migrations:      m.migrations.Value(),
		MigrationErrors: m.migrationErrors.Value(),
		WireConns:       m.conns.Value(),
		Promotions:      m.promotions.Value(),
		PromotionErrors: m.promotionErrors.Value(),
		ReplicaSyncs:    m.replicaSyncs.Value(),
		ReplayedBatches: m.replayedBatches.Value(),
	}
}
