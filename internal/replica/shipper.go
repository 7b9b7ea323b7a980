package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"llbpx/internal/faults"
)

// ErrStaleEpoch reports a ship the standby fenced off: the target has
// already seen (or been promoted to) a higher epoch for the session, so
// this shipper's line of history is dead. The shipper drops the target
// — resuming is the gateway's decision, delivered as a fresh SetTarget.
var ErrStaleEpoch = errors.New("replica: ship rejected, stale epoch")

// ShipperConfig parameterizes a Shipper. Export is required; everything
// else has a default.
type ShipperConfig struct {
	// Every ships a session after this many applied batches (default 16).
	Every int
	// Interval is the anti-entropy loop period, which doubles as the
	// time-based ship cadence: any session with unshipped batches — or
	// whose target changed and has not yet received a full ship — is
	// re-enqueued each tick, so a ship lost to a fault or a lagging
	// standby heals within one Interval (default 2s).
	Interval time.Duration
	// Timeout bounds one ship POST (default 5s).
	Timeout time.Duration
	// Export serializes a session's current state (the admin-export
	// snapshot blob). An export failure clears the session's ship debt —
	// the session is gone or cannot snapshot, and retrying cannot fix
	// either.
	Export func(id string) ([]byte, error)
	// Faults optionally fires SiteReplicate before each ship attempt and
	// tears the shipped bytes under partial-write rules. Nil disables.
	Faults *faults.Injector
	// OnShip / OnShipError observe ship outcomes (metrics hooks; nil ok).
	OnShip      func(id string, bytes int)
	OnShipError func(id string, err error)
	// Client performs the ship POSTs (nil = a private keep-alive client,
	// so each (primary, standby) pair reuses one persistent connection).
	Client *http.Client
}

func (c ShipperConfig) withDefaults() ShipperConfig {
	if c.Every <= 0 {
		c.Every = 16
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// shipTarget is one session's replication state on the primary.
type shipTarget struct {
	url     string // standby base URL ("" never stored; Drop removes instead)
	epoch   uint64 // fence epoch stamped into every ship
	pending int    // applied batches not yet covered by a successful ship
	busy    bool   // queued or in flight, from enqueue until its ship settles
	again   bool   // an enqueue was asked for while the ship was in flight
	shipped bool   // the current (url, epoch) has received at least one full ship
}

// shipJob is one queued ship: the target it was enqueued for travels
// with the ID, so a job whose target was replaced or dropped meanwhile
// is discarded instead of shipping the successor from the wrong queue.
type shipJob struct {
	id string
	t  *shipTarget
}

// Shipper is the primary-side replication pump: NoteBatch accounts
// applied batches per session, ships fire after Every batches or on the
// next anti-entropy tick, and each standby URL gets one serial worker
// goroutine so ships to the same standby are batched over one
// persistent connection instead of stampeding it.
type Shipper struct {
	cfg ShipperConfig

	mu      sync.Mutex
	targets map[string]*shipTarget
	workers map[string]chan shipJob // standby URL -> ship queue
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewShipper builds a Shipper and starts its anti-entropy loop. Call
// Close to stop everything.
func NewShipper(cfg ShipperConfig) *Shipper {
	s := &Shipper{
		cfg:     cfg.withDefaults(),
		targets: make(map[string]*shipTarget),
		workers: make(map[string]chan shipJob),
		stop:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// SetTarget points a session's replication at a standby. A change of
// URL or epoch resets the ship state and triggers an immediate full
// ship — this is how the gateway heals standby placement after a ring
// reshuffle. Re-asserting the current target is a no-op.
func (s *Shipper) SetTarget(id, target string, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || target == "" {
		return
	}
	if t := s.targets[id]; t != nil && t.url == target && t.epoch == epoch {
		return
	}
	t := &shipTarget{url: target, epoch: epoch}
	s.targets[id] = t
	s.enqueueLocked(id, t)
}

// Drop stops replicating a session (closed, migrated away, or fenced).
func (s *Shipper) Drop(id string) {
	s.mu.Lock()
	delete(s.targets, id)
	s.mu.Unlock()
}

// NoteBatch records one applied batch for a session; the Nth unshipped
// batch triggers a ship. Sessions without a target cost one map lookup.
func (s *Shipper) NoteBatch(id string) {
	s.mu.Lock()
	t := s.targets[id]
	if t == nil {
		s.mu.Unlock()
		return
	}
	t.pending++
	if t.pending >= s.cfg.Every {
		s.enqueueLocked(id, t)
	}
	s.mu.Unlock()
}

// Lag reports a session's unshipped batch count (false if the session
// has no replication target). Test and diagnostics surface.
func (s *Shipper) Lag(id string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.targets[id]; t != nil {
		return t.pending, true
	}
	return 0, false
}

// Close stops the anti-entropy loop and every standby worker, then
// waits them out. Idempotent.
func (s *Shipper) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, ch := range s.workers {
		close(ch)
	}
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	s.cfg.Client.CloseIdleConnections()
}

// loop runs the anti-entropy pass every Interval until Close.
func (s *Shipper) loop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.antiEntropy()
	}
}

// antiEntropy re-enqueues every session that owes its standby state —
// unshipped batches, or a target that has never received a full ship
// (fresh placement after a ring change, or a ship lost to an injected
// fault).
func (s *Shipper) antiEntropy() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, t := range s.targets {
		if t.pending > 0 || !t.shipped {
			s.enqueueLocked(id, t)
		}
	}
}

// enqueueLocked hands a session to its standby's worker. Callers hold
// s.mu. A target already queued is left alone (its ship reads the debt
// when it starts); one in flight is marked to be re-enqueued when its
// ship settles, so a slow ship never has a duplicate queued behind it.
// A full queue drops the enqueue — the next anti-entropy tick retries,
// so backpressure degrades to lag, never to blocking the batch path.
func (s *Shipper) enqueueLocked(id string, t *shipTarget) {
	if s.closed {
		return
	}
	if t.busy {
		t.again = true
		return
	}
	ch := s.workers[t.url]
	if ch == nil {
		ch = make(chan shipJob, 1024)
		s.workers[t.url] = ch
		s.wg.Add(1)
		go s.worker(ch)
	}
	select {
	case ch <- shipJob{id: id, t: t}:
		t.busy = true
	default:
	}
}

// worker drains one standby's queue serially: per (primary, standby)
// pair, ships ride a single persistent connection in order.
func (s *Shipper) worker(ch chan shipJob) {
	defer s.wg.Done()
	for j := range ch {
		s.ship(j.id, j.t)
	}
}

// ship performs one ship attempt for a session and settles its
// accounting: success clears the debt observed at send time, a fence
// rejection drops the target, an export failure clears the debt (it is
// unfixable by retrying), and everything else leaves the debt in place
// for the anti-entropy loop. A job whose target is no longer the
// session's current one is dropped unsent. If an enqueue was asked for
// while the ship was in flight and the target still owes Every batches
// or a first full ship, it is re-enqueued at settle.
func (s *Shipper) ship(id string, t *shipTarget) {
	s.mu.Lock()
	if s.closed || s.targets[id] != t {
		s.mu.Unlock()
		return
	}
	t.again = false
	target, epoch, debt := t.url, t.epoch, t.pending
	s.mu.Unlock()

	err := s.shipOnce(id, target, epoch)

	s.mu.Lock()
	t.busy = false
	if s.targets[id] == t {
		switch {
		case err == nil:
			t.shipped = true
			if t.pending -= debt; t.pending < 0 {
				t.pending = 0
			}
		case errors.Is(err, ErrStaleEpoch):
			delete(s.targets, id)
		case errors.Is(err, errExport):
			t.shipped = true
			t.pending = 0
		}
		if t.again && s.targets[id] == t && (t.pending >= s.cfg.Every || !t.shipped) {
			s.enqueueLocked(id, t)
		}
	}
	s.mu.Unlock()
	if err != nil && s.cfg.OnShipError != nil {
		s.cfg.OnShipError(id, err)
	}
}

// errExport marks a ship that failed before leaving the primary.
var errExport = errors.New("replica: export failed")

// shipOnce exports, frames, and POSTs one session checkpoint to the
// standby's install endpoint.
func (s *Shipper) shipOnce(id, target string, epoch uint64) error {
	if err := s.cfg.Faults.Fire(SiteReplicate); err != nil {
		return err
	}
	snap, err := s.cfg.Export(id)
	if err != nil {
		return fmt.Errorf("%w: session %q: %v", errExport, id, err)
	}
	data := s.torn(EncodeBlob(epoch, snap))
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		target+"/admin/v1/sessions/"+url.PathEscape(id)+"/standby", bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		if s.cfg.OnShip != nil {
			s.cfg.OnShip(id, len(data))
		}
		return nil
	case http.StatusConflict:
		return fmt.Errorf("ship of %q to %s: %w", id, target, ErrStaleEpoch)
	default:
		return fmt.Errorf("replica: ship of %q to %s: status %d", id, target, resp.StatusCode)
	}
}

// torn runs the framed blob through the replicate site's partial-write
// rules (no-op without an injector or matching rule), so chaos tests
// can tear a ship on the wire and watch the standby's CRC reject it.
func (s *Shipper) torn(data []byte) []byte {
	if s.cfg.Faults == nil {
		return data
	}
	var buf bytes.Buffer
	w := s.cfg.Faults.WrapWriter(SiteReplicate, &buf)
	if w == nil {
		return data
	}
	_, _ = w.Write(data)
	return buf.Bytes()
}
