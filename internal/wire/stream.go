package wire

import (
	"context"
	"errors"
	"fmt"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/serve"
)

// StreamConfig parameterizes a Stream. The zero value is usable.
type StreamConfig struct {
	// Window is the number of batches kept in flight (default 8).
	Window int
	// StartBatch is the first batch number to assign (default 1). A
	// resuming client that knows the session's applied cursor (e.g. from
	// a stats probe) starts at cursor+1; starting lower is also safe —
	// the server answers the replayed prefix from current state without
	// re-executing.
	StartBatch uint64
	// OnBatch, if set, is called once per *applied* batch in batch-number
	// order with the decoded response. The PredictOK and its bit vectors
	// are only valid during the call (buffers are recycled).
	OnBatch func(ok *PredictOK)
}

// Stream drives one session over the binary protocol with pipelined
// batches. Send queues a batch and returns as soon as the window has
// room; responses are collected in send order. Recovery is built on the
// sequencing contract: after a connection loss or a retryable NACK the
// stream resends unacknowledged batches in order, and the server either
// applies each (cursor+1), answers it from current state (at or below
// cursor — the lost-response case), or NACKs it out_of_order (a gap,
// which the in-order resend then fills). A Stream is not safe for
// concurrent use.
type Stream struct {
	c         *Client
	session   string
	predictor string
	cfg       StreamConfig

	next     uint64 // next batch number to assign
	inflight []*slot
	free     []*slot
	stats    WireStats // from the most recent acknowledged batch
	predName string    // learned from the first acknowledged batch
	closed   bool
}

// slot is one window entry: the retained batch (for resend), its batch
// number, and the call/response storage, all reused across batches.
type slot struct {
	batch    []core.Branch
	batchNum uint64
	attempts int
	sendErr  error // write-path failure to surface at ack time
	cl       call
	ok       PredictOK
}

// Stream returns a pipelined sender for one session. predictor names the
// predictor for session creation ("" = server default).
func (c *Client) Stream(session, predictor string, cfg StreamConfig) *Stream {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.StartBatch == 0 {
		cfg.StartBatch = 1
	}
	s := &Stream{c: c, session: session, predictor: predictor, cfg: cfg, next: cfg.StartBatch}
	s.free = make([]*slot, cfg.Window)
	for i := range s.free {
		s.free[i] = &slot{}
	}
	return s
}

// Stats returns the session statistics carried on the most recent
// acknowledged batch.
func (s *Stream) Stats() WireStats { return s.stats }

// Send queues one batch. It blocks only when the window is full, first
// retiring the oldest in-flight batch. The batch is copied; the caller
// may reuse it immediately.
func (s *Stream) Send(ctx context.Context, batch []core.Branch) error {
	if s.closed {
		return fmt.Errorf("wire: send on closed stream")
	}
	if len(batch) == 0 {
		return fmt.Errorf("wire: empty batch")
	}
	if len(s.free) == 0 {
		if err := s.ackHead(ctx); err != nil {
			return err
		}
	}
	sl := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	sl.batch = append(sl.batch[:0], batch...)
	sl.batchNum = s.next
	s.next++
	sl.attempts = 0
	sl.sendErr = nil
	if err := s.post(ctx, sl); err != nil {
		// Defer to ack time: the transport may heal, and recovery must
		// happen in batch order anyway.
		sl.sendErr = err
	}
	s.inflight = append(s.inflight, sl)
	return nil
}

// Flush retires every in-flight batch, leaving the window empty.
func (s *Stream) Flush(ctx context.Context) error {
	for len(s.inflight) > 0 {
		if err := s.ackHead(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the stream and deletes the session, returning its
// predictor name and final statistics. A close whose acknowledgement was
// lost to a dying connection is absorbed: the retried close reports
// session_not_found, but after a clean Flush the stream's own last-acked
// statistics are authoritative, so Close returns those instead of the
// error — the close happened exactly once.
func (s *Stream) Close(ctx context.Context) (string, WireStats, error) {
	if err := s.Flush(ctx); err != nil {
		return "", WireStats{}, err
	}
	s.closed = true
	pred, st, err := s.c.CloseSession(ctx, s.session)
	var ne *NackError
	if err != nil && s.predName != "" && errors.As(err, &ne) && ne.Code == serve.CodeSessionNotFound {
		return s.predName, s.stats, nil
	}
	return pred, st, err
}

// post (re-)sends a slot's batch, tagged with a fresh connection seq.
func (s *Stream) post(ctx context.Context, sl *slot) error {
	sl.attempts++
	cc, err := s.c.getConn(ctx)
	if err != nil {
		return err
	}
	return cc.send(&sl.cl, func(dst []byte, seq uint64) []byte {
		return AppendPredict(dst, seq, s.session, s.predictor, sl.batchNum, sl.batch)
	})
}

// ackHead blocks until the oldest in-flight batch is acknowledged,
// resending it per the retry policy through transport failures and
// retryable NACKs. Later in-flight slots that failed alongside it are
// handled the same way when their turn comes, which replays them in
// batch order — exactly what the sequencing contract requires.
func (s *Stream) ackHead(ctx context.Context) error {
	sl := s.inflight[0]
	for {
		var rerr error
		var retryAfter time.Duration
		if sl.sendErr != nil {
			rerr, sl.sendErr = sl.sendErr, nil
		} else {
			cc := s.c.currentConn()
			select {
			case <-sl.cl.done:
				rerr = sl.cl.err
			case <-ctx.Done():
				if cc != nil {
					cc.fail(ctx.Err())
				}
				return ctx.Err()
			}
		}
		if rerr == nil {
			done, err := s.settle(sl)
			if err != nil {
				return err
			}
			if done {
				s.inflight = s.inflight[1:]
				s.free = append(s.free, sl)
				return nil
			}
			// Retryable NACK. Fall through to the resend path.
			if ne, ok := sl.cl.err.(*NackError); ok { // stored by settle
				retryAfter = ne.RetryAfter
			}
		}
		if sl.attempts >= s.c.maxAttempts() {
			if rerr == nil {
				rerr = sl.cl.err
			}
			return fmt.Errorf("wire: batch %d for session %q failed after %d attempts: %w",
				sl.batchNum, s.session, sl.attempts, rerr)
		}
		s.c.nretries.Add(1)
		select {
		case <-time.After(s.c.retry.Backoff(sl.attempts, retryAfter)):
		case <-ctx.Done():
			return ctx.Err()
		}
		if err := s.post(ctx, sl); err != nil {
			sl.sendErr = err
		}
	}
}

// settle interprets a completed response for the head slot. It returns
// done=true when the batch is acknowledged, done=false for a retryable
// NACK (stored in sl.cl.err), and a non-nil error for terminal failures.
func (s *Stream) settle(sl *slot) (bool, error) {
	switch sl.cl.typ {
	case FramePredictOK:
		if err := DecodePredictOK(sl.cl.resp, &sl.ok, len(sl.batch)); err != nil {
			return false, err
		}
		if sl.ok.Flags&FlagDuplicate == 0 {
			if int(sl.ok.N) != len(sl.batch) {
				return false, malformedf("sent %d branches, response covers %d", len(sl.batch), sl.ok.N)
			}
			if s.cfg.OnBatch != nil {
				s.cfg.OnBatch(&sl.ok)
			}
		}
		s.stats = sl.ok.Stats
		if s.predName == "" {
			s.predName = string(sl.ok.Predictor)
		}
		return true, nil
	case FrameNack:
		var nk Nack
		if err := DecodeNack(sl.cl.resp, &nk); err != nil {
			return false, err
		}
		ne := &NackError{Code: string(nk.Code), Message: string(nk.Message),
			Retryable: nk.Retryable, RetryAfter: time.Duration(nk.RetryAfterMillis) * time.Millisecond}
		if ne.Code == serve.CodeOverloaded {
			s.c.nshed.Add(1)
		}
		if !ne.Retryable {
			return false, ne
		}
		sl.cl.err = ne
		return false, nil
	default:
		return false, malformedf("predict answered with frame type 0x%02x", sl.cl.typ)
	}
}

// Predict is the unpipelined convenience call: one batch, one response,
// retried per policy. The caller owns batchNum (the session's sequencing
// contract applies). ok's fields are views into client-owned buffers,
// valid until the next call on this client for the same session.
func (c *Client) Predict(ctx context.Context, session, predictor string, batchNum uint64, batch []core.Branch, ok *PredictOK) error {
	sl := &slot{batchNum: batchNum}
	sl.batch = append(sl.batch, batch...)
	st := &Stream{c: c, session: session, predictor: predictor}
	if err := st.post(ctx, sl); err != nil {
		sl.sendErr = err
	}
	st.inflight = append(st.inflight, sl)
	if err := st.ackHead(ctx); err != nil {
		return err
	}
	*ok = sl.ok
	return nil
}
