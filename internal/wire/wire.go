// Package wire is the binary streaming protocol of the serving stack —
// the throughput frontier past HTTP/JSON. The predictor core runs at
// hundreds of nanoseconds per branch with zero allocations, so on the
// JSON path encode/decode and per-request overhead, not prediction,
// dominate served throughput. This package replaces that transport with
// a compact, versioned, length-prefixed binary frame format carried over
// persistent TCP connections with pipelined batches, while the HTTP API
// remains as a compatibility facade over the same serve.Server.
//
// # Frame format
//
// Every connection opens with a 6-byte preamble from each side —
// "LLBW" magic, a format version byte, and a reserved zero byte — then
// carries a stream of frames:
//
//	u32 LE   n        frame length: len(body) + 4 (the trailing CRC)
//	body     n-4 B:
//	  u8       type     frame type (Predict, PredictOK, Nack, ...)
//	  uvarint  seq      connection-level tag echoed in the response
//	  ...               type-specific payload
//	u32 LE   crc      CRC-32C (Castagnoli) over body
//
// Predict payloads delta-encode branch PCs as zigzag varints against the
// previous PC, bit-pack the conditional and taken vectors, and carry
// branch kinds only for the (rare) unconditional branches; PredictOK
// payloads bit-pack the four per-branch outcome vectors (cond, taken,
// correct, second-level). A shed or refused batch is a typed NACK frame
// carrying the serving stack's stable error code, a retryable flag, and
// a Retry-After hint — the binary twin of the HTTP 429/503 envelope.
//
// # Pipelining and the sequencing contract
//
// Clients tag frames with connection-level sequence numbers and may keep
// many Predict frames in flight; the server executes frames for the
// same session in arrival order (different sessions in parallel) and
// responds out-of-band per frame. Exactly-once application across
// retries and reconnects rides on a second, per-session number: each
// Predict carries the session's monotonically increasing batch number.
// A batch at cursor+1 applies; a batch at or below the cursor is
// answered from current state without re-executing (the resend of a
// batch whose response was lost); a batch past cursor+1 is NACKed
// out_of_order so a pipelined retry can never silently skip a failed
// predecessor. The cursor is part of the session's checkpoint, so the
// contract survives evict-to-disk, restore, and daemon restarts.
//
// Encode and decode are allocation-free in steady state: encoders append
// into caller-owned buffers and decoders parse into reusable structs,
// gated by TestWireCodecZeroAlloc exactly like the hot-path bars.
package wire

import (
	"errors"
	"fmt"
)

// Version is the frame-format version carried in the connection
// preamble. Both sides must agree exactly; there is no negotiation —
// a version bump is a new deployment, not a runtime fallback.
const Version = 1

// preamble is the 6-byte connection opener each side sends: magic,
// version, reserved.
var preamble = [6]byte{'L', 'L', 'B', 'W', Version, 0}

// Frame types. Request types have the high bit clear; their responses
// set it. Nack answers any request type.
const (
	// FramePredict streams one batch of branches to a session.
	FramePredict = 0x01
	// FrameClose deletes a session and asks for its final statistics.
	FrameClose = 0x02
	// FramePing is a liveness no-op; the server echoes FramePong.
	FramePing = 0x03

	// FramePredictOK answers FramePredict with bit-packed per-branch
	// outcomes and the session's post-batch statistics.
	FramePredictOK = 0x81
	// FrameCloseOK answers FrameClose with the session's final statistics.
	FrameCloseOK = 0x82
	// FramePong answers FramePing.
	FramePong = 0x83
	// FrameNack answers any request with a typed refusal: a stable error
	// code, a human-readable message, a retryable flag, and a
	// Retry-After hint in milliseconds.
	FrameNack = 0xEE
)

// Fault-injection site names the wire listener fires (internal/faults),
// armed through the same injector as the serve.Fault* sites.
const (
	// FaultRead fires before each frame read; an injected error tears the
	// connection down as if the peer vanished mid-stream.
	FaultRead = "wire.read"
	// FaultWrite fires before each response-frame write; an injected
	// error likewise kills the connection after execution — the lost-ack
	// case the sequencing contract exists for.
	FaultWrite = "wire.write"
)

// Hard decode bounds. They cap what a hostile or corrupt frame can make
// the decoder allocate before any content validation runs.
const (
	// MaxFrame is the largest accepted frame (length prefix bound).
	MaxFrame = 16 << 20
	// MaxSessionID bounds the session-ID string in a frame.
	MaxSessionID = 4096
	// MaxPredictorName bounds the predictor-name string in a frame.
	MaxPredictorName = 256
	// MaxCode and MaxMessage bound the NACK strings.
	MaxCode    = 64
	MaxMessage = 1024
)

// ErrMalformed is wrapped by every decode failure: truncated frames,
// bad varints, out-of-range counts, CRC mismatches, framing violations.
// A malformed frame poisons the stream (framing is lost), so peers drop
// the connection on it.
var ErrMalformed = errors.New("wire: malformed frame")

// malformedf builds an ErrMalformed-wrapping error.
func malformedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}
