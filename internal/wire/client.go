package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"llbpx/internal/serve"
)

// NackError is a typed server refusal: the binary twin of serve.APIError.
// Code carries the serving stack's stable error code, Retryable whether
// resending the same frame is safe and useful, RetryAfter the server's
// backoff hint.
type NackError struct {
	Code       string
	Message    string
	Retryable  bool
	RetryAfter time.Duration
}

func (e *NackError) Error() string {
	return fmt.Sprintf("wire: nack %s: %s", e.Code, e.Message)
}

// Client speaks the binary protocol to one llbpd wire listener. It keeps
// a single persistent connection (redialed transparently after failures),
// multiplexes pipelined calls over it by sequence number, and is safe for
// concurrent use — each goroutine typically driving its own Stream.
//
// Retry semantics mirror the HTTP client's idempotency contract, with one
// upgrade: because every Predict carries a per-session batch number and
// the server deduplicates at its applied cursor, even a batch whose
// *response* was lost is safe to resend — the resend is answered from
// current state without re-executing. The HTTP client must never resend
// an executed predict; the wire client may always resend.
type Client struct {
	addr        string
	retry       serve.RetryPolicy
	dialTimeout time.Duration

	mu sync.Mutex
	cc *clientConn

	nretries    atomic.Uint64
	nshed       atomic.Uint64
	nreconnects atomic.Uint64
}

// NewClient returns a client for the llbpd wire listener at addr
// (host:port). It does not dial until first use.
func NewClient(addr string) *Client {
	return &Client{addr: addr, dialTimeout: 5 * time.Second}
}

// WithRetry arms the retry policy (serve.RetryPolicy field defaults) and
// returns the client for chaining. Call before sharing across goroutines.
func (c *Client) WithRetry(p serve.RetryPolicy) *Client {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.2
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	c.retry = p
	return c
}

// Retries reports resend attempts performed across all calls.
func (c *Client) Retries() uint64 { return c.nretries.Load() }

// ShedSeen reports overloaded NACKs absorbed (retried or surfaced).
func (c *Client) ShedSeen() uint64 { return c.nshed.Load() }

// Reconnects reports how many times the client redialed after losing an
// established connection.
func (c *Client) Reconnects() uint64 { return c.nreconnects.Load() }

// Close tears down the current connection, failing any in-flight calls.
func (c *Client) Close() error {
	c.mu.Lock()
	cc := c.cc
	c.cc = nil
	c.mu.Unlock()
	if cc != nil {
		cc.fail(net.ErrClosed)
	}
	return nil
}

// maxAttempts is the per-call resend budget under the armed policy.
func (c *Client) maxAttempts() int {
	if c.retry.MaxAttempts > 0 {
		return c.retry.MaxAttempts
	}
	return 1
}

// currentConn returns the connection as-is (possibly nil or dead),
// without dialing.
func (c *Client) currentConn() *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cc
}

// getConn returns the live connection, dialing a fresh one if the
// previous died (or none exists yet).
func (c *Client) getConn(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cc != nil {
		if !c.cc.dead() {
			return c.cc, nil
		}
		c.cc = nil
		c.nreconnects.Add(1)
	}
	d := net.Dialer{Timeout: c.dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	nc.SetDeadline(time.Now().Add(c.dialTimeout))
	if _, err := nc.Write(preamble[:]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	var got [len(preamble)]byte
	if _, err := io.ReadFull(nc, got[:]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	if got != preamble {
		nc.Close()
		return nil, fmt.Errorf("%w: bad server preamble % x", ErrMalformed, got[:])
	}
	nc.SetDeadline(time.Time{})
	cc := &clientConn{c: nc, pending: make(map[uint64]*call)}
	go cc.readLoop()
	c.cc = cc
	return cc, nil
}

// call is one in-flight request/response exchange. The request frame is
// encoded into req, which only the sending goroutine touches; the
// response payload is copied into resp, which the reader owns from
// registration until done closes. Both buffers are reused across calls,
// and keeping them apart lets a reply land while its request is still
// being written.
type call struct {
	seq  uint64
	done chan struct{}
	typ  byte
	req  []byte
	resp []byte
	err  error
}

// clientConn is one established wire connection: a writer lock for frame
// serialization and a reader goroutine routing responses by seq.
type clientConn struct {
	c net.Conn

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]*call
	err     error
}

func (cc *clientConn) dead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// fail marks the connection dead exactly once and completes every
// pending call with the terminal error.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = err
	pending := cc.pending
	cc.pending = nil
	cc.mu.Unlock()
	cc.c.Close()
	for _, cl := range pending {
		cl.err = err
		close(cl.done)
	}
}

// send registers the call under a fresh seq, encodes the frame with that
// seq via enc, and writes it. One frame is one Write; the server-side
// writer does the response coalescing.
func (cc *clientConn) send(cl *call, enc func(dst []byte, seq uint64) []byte) error {
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return err
	}
	cc.nextSeq++
	seq := cc.nextSeq
	cc.mu.Unlock()

	// Encode, then register: once the call is in pending, the reader owns
	// cl.resp (never cl.req) the moment a response lands.
	cl.seq = seq
	cl.typ, cl.err = 0, nil
	cl.done = make(chan struct{})
	cl.req = enc(cl.req[:0], seq)
	frame := cl.req

	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return err
	}
	cc.pending[seq] = cl
	cc.mu.Unlock()

	cc.wmu.Lock()
	_, err := cc.c.Write(frame)
	cc.wmu.Unlock()
	if err != nil {
		cc.fail(err)
		return err
	}
	return nil
}

// readLoop routes response frames to their pending calls until the
// connection dies. Responses for abandoned seqs are dropped.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.c, 256<<10)
	var buf []byte
	for {
		body, nbuf, _, err := ReadFrame(br, buf)
		if err != nil {
			cc.fail(err)
			return
		}
		buf = nbuf
		typ, seq, payload, err := ParseHeader(body)
		if err != nil {
			cc.fail(err)
			return
		}
		cc.mu.Lock()
		cl := cc.pending[seq]
		delete(cc.pending, seq)
		cc.mu.Unlock()
		if cl == nil {
			continue
		}
		cl.typ = typ
		cl.resp = append(cl.resp[:0], payload...)
		close(cl.done)
	}
}

// Ping round-trips a liveness frame.
func (c *Client) Ping(ctx context.Context) error {
	cc, err := c.getConn(ctx)
	if err != nil {
		return err
	}
	cl := &call{}
	if err := cc.send(cl, func(dst []byte, seq uint64) []byte {
		return AppendPing(dst, seq)
	}); err != nil {
		return err
	}
	if err := c.wait(ctx, cc, cl); err != nil {
		return err
	}
	if cl.typ != FramePong {
		return malformedf("ping answered with frame type 0x%02x", cl.typ)
	}
	return nil
}

// CloseSession deletes a session and returns its predictor name and
// final statistics, retrying per policy. A resend that races a completed
// close surfaces the server's session_not_found NACK, exactly like a
// replayed HTTP DELETE.
func (c *Client) CloseSession(ctx context.Context, session string) (string, WireStats, error) {
	cl := &call{}
	var co CloseOK
	for attempt := 1; ; attempt++ {
		err, retryable, retryAfter := c.closeOnce(ctx, cl, session, &co)
		if err == nil {
			return string(co.Predictor), co.Stats, nil
		}
		if !retryable || attempt >= c.maxAttempts() {
			return "", WireStats{}, err
		}
		c.nretries.Add(1)
		select {
		case <-time.After(c.retry.Backoff(attempt, retryAfter)):
		case <-ctx.Done():
			return "", WireStats{}, err
		}
	}
}

func (c *Client) closeOnce(ctx context.Context, cl *call, session string, co *CloseOK) (error, bool, time.Duration) {
	cc, err := c.getConn(ctx)
	if err != nil {
		return err, true, 0
	}
	if err := cc.send(cl, func(dst []byte, seq uint64) []byte {
		return AppendClose(dst, seq, session)
	}); err != nil {
		return err, true, 0
	}
	if err := c.wait(ctx, cc, cl); err != nil {
		// Transport death: like the batch path, close is safe to resend —
		// at worst the resend reports session_not_found.
		return err, true, 0
	}
	switch cl.typ {
	case FrameCloseOK:
		if err := DecodeCloseOK(cl.resp, co); err != nil {
			return err, false, 0
		}
		return nil, false, 0
	case FrameNack:
		var nk Nack
		if err := DecodeNack(cl.resp, &nk); err != nil {
			return err, false, 0
		}
		ne := &NackError{Code: string(nk.Code), Message: string(nk.Message),
			Retryable: nk.Retryable, RetryAfter: time.Duration(nk.RetryAfterMillis) * time.Millisecond}
		return ne, ne.Retryable, ne.RetryAfter
	default:
		return malformedf("close answered with frame type 0x%02x", cl.typ), false, 0
	}
}

// wait blocks for the call's response. Cancellation mid-wait kills the
// connection: an abandoned call's slot may be recycled by the caller, so
// letting the reader complete it later would race.
func (c *Client) wait(ctx context.Context, cc *clientConn, cl *call) error {
	select {
	case <-cl.done:
		return cl.err
	case <-ctx.Done():
		cc.fail(ctx.Err())
		<-cl.done
		return ctx.Err()
	}
}
