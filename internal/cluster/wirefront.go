package cluster

import (
	"context"
	"errors"
	"net"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/serve"
	"llbpx/internal/wire"
)

// Wire frontend -------------------------------------------------------------
//
// The gateway also speaks the binary protocol upstream, so wire clients
// (llbpload -proto binary, wire.Stream users) point at the cluster
// unchanged. It runs on wire.Server's connection pipeline, the same one
// llbpd's listener uses, with wireHandler as the execution step.
// Upstream batch numbers pass through verbatim — the client owns its
// cursor, and the downstream owner's duplicate/out-of-order verdicts
// relay back untouched, which is exactly what makes the client's
// pipelined recovery work across a mid-stream migration. Responses are
// relayed with AppendPredictOKRaw: the decoded downstream vectors are
// re-framed under the upstream sequence number without re-encoding the
// batch.

// ServeWire accepts upstream binary-protocol connections on ln until the
// listener closes (or the gateway does).
func (g *Gateway) ServeWire(ln net.Listener) error {
	if err := g.ws.Serve(ln); !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// wireHandler is the gateway's wire.Handler: forward each batch to the
// session's owner, or close the session there, and relay the answer.
// Both run under the gateway's context rather than the connection's, so
// an upstream hang-up never cuts a forward short after the owner may
// have applied it.
type wireHandler struct{ g *Gateway }

func (h wireHandler) Predict(_ context.Context, dst []byte, seq uint64, p *wire.Predict, _ []core.Prediction) []byte {
	var ok wire.PredictOK
	if _, err := h.g.predict(h.g.ctx, string(p.Session), string(p.Predictor), p.BatchNum, p.Branches, &ok); err != nil {
		return appendNack(dst, seq, err)
	}
	return wire.AppendPredictOKRaw(dst, seq, ok.Flags, ok.Predictor, ok.N,
		ok.Cond, ok.Taken, ok.Correct, ok.Second, ok.Stats)
}

func (h wireHandler) Close(_ context.Context, dst []byte, seq uint64, session string) []byte {
	ctx, cancel := context.WithTimeout(h.g.ctx, h.g.cfg.ForwardTimeout)
	defer cancel()
	pred, st, err := h.g.closeSession(ctx, session)
	if err != nil {
		return appendNack(dst, seq, err)
	}
	return wire.AppendCloseOK(dst, seq, pred, st)
}

// appendNack relays a downstream NACK as-is; any other failure is an
// internal error.
func appendNack(dst []byte, seq uint64, err error) []byte {
	ne := &wire.NackError{Code: serve.CodeInternal, Message: err.Error()}
	errors.As(err, &ne)
	return wire.AppendNack(dst, seq, ne.Code, ne.Message, ne.Retryable, uint64(ne.RetryAfter/time.Millisecond))
}
