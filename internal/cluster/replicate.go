package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/serve"
	"llbpx/internal/wire"
)

// Hot-standby failover --------------------------------------------------
//
// With Config.Replicate on, every session gets a standby: the next
// distinct backend clockwise on the ring (hashutil.Ring.LookupN). The
// gateway tells the primary where to ship (serve's replica shipper does
// the shipping asynchronously), and keeps a bounded replay tail of the
// most recent applied batches. On a death verdict the ring, by
// construction, re-targets the session exactly at its standby — the
// gateway promotes the warm standby under a bumped fence epoch (which
// permanently rejects the dead primary's late ships) and replays only
// the batches past the promoted state's applied cursor from its tail.
// Promotion therefore reproduces the primary's stream bit for bit
// without touching the shared snapshot directory.

// tailEntry is one applied batch retained for post-promotion replay.
type tailEntry struct {
	num   uint64
	batch []core.Branch
}

// recordTail retains an acknowledged batch in the session's replay tail.
// Callers hold gs.mu. A resend of an already-recorded number is skipped
// (the tail is strictly increasing), and the tail is trimmed to
// ReplayTail entries — the ship cadence must fit inside it, which
// withDefaults guarantees for the default configuration.
func (g *Gateway) recordTail(gs *gwSession, num uint64, batch []core.Branch) {
	if num == 0 {
		return
	}
	if n := len(gs.tail); n > 0 && gs.tail[n-1].num >= num {
		return
	}
	cp := make([]core.Branch, len(batch))
	copy(cp, batch)
	gs.tail = append(gs.tail, tailEntry{num: num, batch: cp})
	if over := len(gs.tail) - g.cfg.ReplayTail; over > 0 {
		gs.tail = append(gs.tail[:0], gs.tail[over:]...)
	}
}

// ensureReplica keeps the session's standby assignment in sync with the
// ring: after any membership change (or on first contact) it recomputes
// the standby — the next distinct live backend clockwise — and
// re-asserts the primary's replication target, which also triggers an
// immediate repair ship for a fresh placement. Callers hold gs.mu; bs is
// the session's current owner. Cheap when nothing changed: one version
// compare.
func (g *Gateway) ensureReplica(ctx context.Context, gs *gwSession, bs *backendState) {
	g.mu.Lock()
	version := g.ringVersion
	if gs.replicaVersion == version {
		g.mu.Unlock()
		return
	}
	owners := g.ring.LookupN(gs.id, 2)
	var standby, standbyURL string
	if len(owners) > 0 && owners[0] != gs.owner {
		// The ring moved under us mid-forward; the next pass will land on
		// the settled membership.
		g.mu.Unlock()
		return
	}
	if len(owners) == 2 {
		if sb := g.backends[owners[1]]; sb != nil {
			standby, standbyURL = owners[1], sb.b.HTTPURL
		}
	}
	g.mu.Unlock()
	// Single live backend: clear the target (nowhere to replicate to).
	if err := bs.hc.SetReplicaTarget(ctx, gs.id, standbyURL, gs.epoch); err != nil {
		return // re-asserted on the next forward
	}
	if old := gs.standby; old != "" && old != standby {
		// Placement moved: release the superseded standby's warm copy.
		if sb := g.backend(old); sb != nil {
			_ = sb.hc.DropStandby(ctx, gs.id)
		}
	}
	gs.standby = standby
	gs.replicaVersion = version
	g.metrics.replicaSyncs.Inc()
}

// promote fails a session over onto its warm standby: PromoteStandby
// under the bumped fence epoch, then replay the tail batches past the
// promoted state's applied cursor. Callers hold gs.mu; tgt is the ring's
// new owner for the session — which, after the old owner left the ring,
// is exactly the standby. Returns nil only when the promoted session is
// bit-exact with the lost primary (fence raised, tail fully replayed);
// any error means the caller must fall back to the bare reroute.
//
// The attempt loop is load-bearing: a failed promotion falls back to a
// cold reroute, so an injected cluster.promote fault must be retried
// here — inside the quiesced session — rather than surfacing as a
// permanently degraded session.
func (g *Gateway) promote(ctx context.Context, gs *gwSession, tgt *backendState) error {
	var lastErr error
	for attempt := 1; attempt <= g.cfg.TransferAttempts; attempt++ {
		if attempt > 1 {
			select {
			case <-time.After(g.retry.Backoff(attempt-1, 0)):
			case <-ctx.Done():
				return lastErr
			}
		}
		if err := g.cfg.Faults.Fire(FaultPromote); err != nil {
			lastErr = err
			continue
		}
		fin, err := tgt.hc.PromoteStandby(ctx, gs.id, gs.epoch+1)
		if err != nil {
			if errors.Is(err, serve.ErrSessionNotFound) || errors.Is(err, serve.ErrStaleEpoch) {
				// No standby installed there (placement never completed), or
				// another line of history already owns the session. Neither
				// is retryable; fall back.
				g.metrics.promotionErrors.Inc()
				return err
			}
			lastErr = err
			continue
		}
		// The fence is up: the dead primary's late ships bounce from here on.
		gs.epoch++
		gs.standby = ""
		gs.replicaVersion = 0 // reassign a fresh standby on the next forward
		if err := g.replayTail(ctx, gs, tgt, fin.Stats.WireCursor); err != nil {
			g.metrics.promotionErrors.Inc()
			return err
		}
		g.metrics.promotions.Inc()
		return nil
	}
	g.metrics.promotionErrors.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: promotion of %q failed", gs.id)
	}
	return lastErr
}

// replayTail replays the session's retained batches with numbers past
// cursor — the unshipped tail the standby never saw — into the promoted
// session, in order. The tail must cover the gap contiguously; if the
// oldest retained batch past the cursor is not cursor+1, batches have
// been trimmed and exactness is unprovable, so the caller degrades to a
// bare reroute. Replayed numbers the promoted session already applied
// answer as duplicates, which is fine — replay is idempotent by the
// exactly-once contract.
func (g *Gateway) replayTail(ctx context.Context, gs *gwSession, tgt *backendState, cursor uint64) error {
	first := -1
	for i, e := range gs.tail {
		if e.num > cursor {
			first = i
			break
		}
	}
	if first == -1 {
		gs.next = cursor + 1
		return nil
	}
	if gs.tail[first].num != cursor+1 {
		return fmt.Errorf("cluster: replay tail for %q starts at %d, standby cursor %d: gap",
			gs.id, gs.tail[first].num, cursor)
	}
	var ok wire.PredictOK
	for _, e := range gs.tail[first:] {
		var lastErr error
		replayed := false
		for attempt := 1; attempt <= g.cfg.ForwardAttempts && !replayed; attempt++ {
			if attempt > 1 {
				select {
				case <-time.After(g.retry.Backoff(attempt-1, 0)):
				case <-ctx.Done():
					return lastErr
				}
			}
			cctx, cancel := context.WithTimeout(ctx, g.cfg.ForwardTimeout)
			err := tgt.wc.Predict(cctx, gs.id, gs.predictor, e.num, e.batch, &ok)
			cancel()
			if err == nil {
				replayed = true
				break
			}
			lastErr = err
		}
		if !replayed {
			return fmt.Errorf("cluster: replaying batch %d of %q: %w", e.num, gs.id, lastErr)
		}
		gs.next = e.num + 1
		g.metrics.replayedBatches.Inc()
	}
	gs.last = ok.Stats
	gs.touched = true
	return nil
}

// dropReplicaTarget best-effort clears replication state for a closed
// session: the standby's warm copy is discarded so it cannot linger.
// Callers hold gs.mu.
func (g *Gateway) dropReplicaTarget(ctx context.Context, gs *gwSession) {
	if !g.cfg.Replicate || gs.standby == "" {
		return
	}
	if sb := g.backend(gs.standby); sb != nil {
		_ = sb.hc.DropStandby(ctx, gs.id)
	}
}
