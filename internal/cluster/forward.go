package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/serve"
	"llbpx/internal/wire"
)

// ownerLocked resolves the session's current owner against the ring,
// migrating the session when the ring disagrees with where it lives.
// Callers hold gs.mu. It returns nil when no backend is live.
//
// The false-positive-death rule: when the session must move, the
// gateway ALWAYS attempts a live transfer first — even from a backend it
// has declared dead. A wrong verdict (the backend was merely slow or
// briefly partitioned) then still donates its warm state; only when the
// export genuinely fails does the move degrade. How it degrades depends
// on the source's verdict: a live source keeps the session (the move is
// retried on a later pass rather than forked), a dead source forfeits it
// — the session reroutes bare, and its warm state follows through the
// shared snapshot directory if the backends have one.
func (g *Gateway) ownerLocked(ctx context.Context, gs *gwSession) *backendState {
	g.mu.Lock()
	target := g.ring.Lookup(gs.id)
	var cur, tgt *backendState
	if gs.owner != "" {
		cur = g.backends[gs.owner]
	}
	if target != "" {
		tgt = g.backends[target]
	}
	g.mu.Unlock()
	if tgt == nil {
		return nil
	}
	if gs.owner == target {
		return tgt
	}
	if cur != nil && gs.touched {
		if err := g.transfer(ctx, gs, cur, tgt); err != nil {
			if cur.alive.Load() {
				// The source is healthy and keeps the authoritative state;
				// stay put and let a later pass retry the move.
				return cur
			}
			// Dead source, failed transfer. With replication on, the ring's
			// new target for the session is — by LookupN construction —
			// exactly its standby: promote the warm copy and replay the
			// unshipped tail instead of degrading. Only when promotion also
			// fails (no standby ever installed, fenced off, gap in the
			// tail) does the session reroute bare.
			if !(g.cfg.Replicate && g.promote(ctx, gs, tgt) == nil) {
				g.metrics.reroutes.Inc()
				gs.next = 0
			}
		}
	} else {
		// First route (or a session that never reached a backend): nothing
		// to move.
		gs.next = 0
	}
	gs.owner = target
	return tgt
}

// transfer moves one quiesced session from → to through the admin
// transfer API: export the checkpoint, import it on the new owner,
// delete the original. Each attempt re-exports, so a torn blob (rejected
// by the import side's CRC) is never resent verbatim. On success the
// session's assigned-batch cursor is primed from the imported state.
// Callers hold gs.mu.
func (g *Gateway) transfer(ctx context.Context, gs *gwSession, from, to *backendState) error {
	start := time.Now()
	var lastErr error
	for attempt := 1; attempt <= g.cfg.TransferAttempts; attempt++ {
		if attempt > 1 {
			select {
			case <-time.After(g.retry.Backoff(attempt-1, 0)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := g.cfg.Faults.Fire(FaultTransfer); err != nil {
			lastErr = err
			continue
		}
		blob, err := from.hc.ExportSession(ctx, gs.id)
		if err != nil {
			if errors.Is(err, serve.ErrSessionNotFound) {
				// Nothing to move: the session never materialized on (or was
				// already closed at) the old owner. The reroute is lossless.
				gs.next = 0
				return nil
			}
			lastErr = err
			continue
		}
		// Partial-write rules on the transfer site tear the blob here, on
		// the wire between export and import — the import's integrity
		// checks must catch it.
		blob = g.tornBlob(blob)
		var fin *serve.SessionFinal
		if g.cfg.Replicate {
			// Stamp the session's fence epoch into the transfer so a
			// fenced-off former primary's export cannot overwrite
			// post-failover state.
			fin, err = to.hc.ImportSessionAt(ctx, gs.id, gs.epoch, blob)
		} else {
			fin, err = to.hc.ImportSession(ctx, gs.id, blob)
		}
		if err != nil {
			if errors.Is(err, serve.ErrStaleEpoch) {
				// Another line of history already owns the session there;
				// re-exporting the same stale state cannot win.
				g.metrics.migrationErrors.Inc()
				return err
			}
			lastErr = err
			continue
		}
		// Best-effort delete at the source: the imported copy is now
		// authoritative, and a dangling original must not resurrect.
		from.hc.CloseSession(ctx, gs.id)
		gs.next = fin.Stats.WireCursor + 1
		g.metrics.migrations.Inc()
		g.metrics.migrationDur.ObserveDuration(time.Since(start))
		return nil
	}
	g.metrics.migrationErrors.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: transfer of %q failed", gs.id)
	}
	return lastErr
}

// tornBlob runs an exported checkpoint through the transfer site's
// partial-write rules (a no-op without an injector or matching rule).
func (g *Gateway) tornBlob(blob []byte) []byte {
	if g.cfg.Faults == nil {
		return blob
	}
	var buf bytes.Buffer
	w := g.cfg.Faults.WrapWriter(FaultTransfer, &buf)
	if w == nil {
		return blob
	}
	_, _ = w.Write(blob)
	return buf.Bytes()
}

// probeCursor primes gs.next from the owner's applied cursor, so a
// gateway-assigned stream resumes exactly-once after a restart or a
// relocation. An unknown session starts at 1.
func (g *Gateway) probeCursor(ctx context.Context, gs *gwSession, bs *backendState) {
	fin, err := bs.hc.SessionStats(ctx, gs.id)
	if err != nil {
		gs.next = 1
		return
	}
	gs.next = fin.Stats.WireCursor + 1
}

// forward routes one batch to the session's owner, riding out
// partitions, reroutes, cursor skew, and retryable refusals for up to
// ForwardAttempts. Callers hold gs.mu.
//
// batchNum semantics: a non-zero batchNum is an upstream-sequenced batch
// (wire clients own their cursor) and passes through verbatim — its
// duplicate/out-of-order verdicts are relayed back untouched. batchNum 0
// means the upstream does not sequence (HTTP), so the gateway assigns
// numbers from gs.next and resolves sequencing verdicts itself: its own
// resend answered as a duplicate is a success (the lost-response case),
// while a duplicate on first send means the cursor moved under us
// (another path applied batches) and the stream resynchronizes from the
// owner's statistics.
func (g *Gateway) forward(ctx context.Context, gs *gwSession, predictor string, batchNum uint64, batch []core.Branch, ok *wire.PredictOK) (duplicate bool, err error) {
	assign := batchNum == 0
	var lastErr error
	var prevNum uint64 // number this call already put on the wire (0 = none)
	for attempt := 1; attempt <= g.cfg.ForwardAttempts; attempt++ {
		if attempt > 1 {
			g.metrics.forwardRetries.Inc()
			var hint time.Duration
			var ne *wire.NackError
			if errors.As(lastErr, &ne) {
				hint = ne.RetryAfter
			}
			select {
			case <-time.After(g.retry.Backoff(attempt-1, hint)):
			case <-ctx.Done():
				return false, lastErr
			}
		}
		bs := g.ownerLocked(ctx, gs)
		if bs == nil {
			lastErr = fmt.Errorf("cluster: no live backend for session %q", gs.id)
			g.metrics.forwardErrors.Inc()
			continue
		}
		if ferr := g.cfg.Faults.Fire(FaultForward); ferr != nil {
			// Injected partition: indistinguishable from a lost link, so it
			// feeds the same death verdict as a real transport failure.
			lastErr = fmt.Errorf("cluster: forward to %s: %w", bs.b.Name, ferr)
			g.metrics.forwardErrors.Inc()
			g.noteFailure(bs)
			continue
		}
		num := batchNum
		if assign {
			if gs.next == 0 {
				g.probeCursor(ctx, gs, bs)
			}
			num = gs.next
		}
		cctx, cancel := context.WithTimeout(ctx, g.cfg.ForwardTimeout)
		err := bs.wc.Predict(cctx, gs.id, predictor, num, batch, ok)
		cancel()
		if err == nil {
			bs.fails.Store(0)
			dup := ok.Flags&wire.FlagDuplicate != 0
			if assign && dup && prevNum != num {
				// First send of this number answered "already applied": the
				// owner's cursor is ahead of the gateway's (restored state,
				// or a previous life of this gateway). Resynchronize and
				// re-send the batch under the next free number.
				gs.next = ok.Stats.Batches + 1
				g.metrics.cursorResyncs.Inc()
				prevNum = 0
				lastErr = fmt.Errorf("cluster: cursor behind owner %s for session %q", bs.b.Name, gs.id)
				continue
			}
			if assign {
				gs.next = num + 1
			}
			if gs.predictor == "" {
				// Copy: ok.Predictor is a view into the client's buffers.
				gs.predictor = string(ok.Predictor)
			}
			gs.last = ok.Stats
			gs.touched = true
			g.metrics.routedBatches.Inc()
			if g.cfg.Replicate {
				g.recordTail(gs, num, batch)
				g.ensureReplica(ctx, gs, bs)
			}
			return assign && dup, nil
		}
		if assign {
			prevNum = num
		}
		lastErr = err
		g.metrics.forwardErrors.Inc()
		var ne *wire.NackError
		if errors.As(err, &ne) {
			switch {
			case ne.Code == serve.CodeDraining:
				// Drain is a membership announcement, not a fault: retire
				// the backend so this and every other session migrates off
				// it while it can still donate state.
				bs.leaving.Store(true)
				g.markDead(bs)
				continue
			case ne.Code == wire.CodeOutOfOrder && assign:
				// The owner's cursor is behind the gateway's assignment
				// (fresh import raced a resend); reprobe and fill the gap.
				gs.next = 0
				continue
			case !ne.Retryable:
				return false, err
			default:
				continue
			}
		}
		// Transport failure (dial, reset, timeout): counts toward the
		// death verdict, then retry — possibly onto a new owner.
		g.noteFailure(bs)
	}
	return false, lastErr
}

// closeSession closes the session on its owner and forgets the route. A
// close whose acknowledgement was lost is absorbed exactly like
// wire.Stream.Close: if the owner reports session_not_found but the
// gateway has acknowledged statistics, the close already happened.
func (g *Gateway) closeSession(ctx context.Context, id string) (string, wire.WireStats, error) {
	gs := g.session(id, false)
	if gs == nil {
		return "", wire.WireStats{}, &wire.NackError{Code: serve.CodeSessionNotFound, Message: fmt.Sprintf("no session %q", id)}
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		return "", wire.WireStats{}, &wire.NackError{Code: serve.CodeSessionNotFound, Message: fmt.Sprintf("session %q already closed", id)}
	}
	var lastErr error
	for attempt := 1; attempt <= g.cfg.ForwardAttempts; attempt++ {
		if attempt > 1 {
			select {
			case <-time.After(g.retry.Backoff(attempt-1, 0)):
			case <-ctx.Done():
				return "", wire.WireStats{}, lastErr
			}
		}
		bs := g.ownerLocked(ctx, gs)
		if bs == nil {
			lastErr = fmt.Errorf("cluster: no live backend for session %q", id)
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, g.cfg.ForwardTimeout)
		pred, st, err := bs.wc.CloseSession(cctx, id)
		cancel()
		if err == nil {
			g.dropReplicaTarget(ctx, gs)
			gs.closed = true
			g.forget(id)
			return pred, st, nil
		}
		var ne *wire.NackError
		if errors.As(err, &ne) {
			if ne.Code == serve.CodeSessionNotFound && gs.predictor != "" && gs.touched {
				g.dropReplicaTarget(ctx, gs)
				gs.closed = true
				g.forget(id)
				return gs.predictor, gs.last, nil
			}
			if !ne.Retryable {
				return "", wire.WireStats{}, err
			}
			lastErr = err
			continue
		}
		lastErr = err
		g.noteFailure(bs)
	}
	return "", wire.WireStats{}, lastErr
}
