package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"llbpx/internal/core"
)

// Client is a minimal llbpd API client, the transport half of
// cmd/llbpload. It is safe for concurrent use by multiple goroutines
// (each driving its own session).
//
// By default the client gives up on the first failure. WithRetry arms
// exponential backoff with jitter, honoring the server's Retry-After
// hint, under strict idempotency rules: a response that arrived as a 429
// (shed) or 503 (draining / injected pre-execution fault) means the
// server did not apply the batch, so any request is safe to resend; a
// transport error before any response byte was consumed is likewise
// retried. But once a 2xx body has started decoding, a predict is never
// retried — the server executed the batch, and replaying it would
// double-apply learned state. Session stats and close are idempotent by
// construction and follow the same mechanical rules.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy

	// Fingerprint is the workload fingerprint every Predict declares
	// ("" = none). The server consults it only on the batch that creates
	// a session; under -store-share, evicted sessions with identical
	// fingerprints share their frozen predictor state.
	Fingerprint string

	nretries atomic.Uint64 // resend attempts performed
	nshed    atomic.Uint64 // 429 overloaded envelopes observed
}

// RetryPolicy configures Client retries. The zero value disables them;
// WithRetry fills unset fields with the defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 50ms); step k waits
	// BaseDelay << k, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter]
	// multiples of itself (default 0.2), so synchronized clients don't
	// re-stampede a recovering server.
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
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
	return p
}

// NewClient returns a client for the llbpd instance at base (e.g.
// "http://localhost:8713"). hc may be nil for http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// WithRetry arms the retry policy (see RetryPolicy for defaults) and
// returns the client for chaining. Call before sharing the client across
// goroutines.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = p.withDefaults()
	return c
}

// Retries reports how many resend attempts this client has performed.
func (c *Client) Retries() uint64 { return c.nretries.Load() }

// ShedSeen reports how many 429 overloaded responses this client has
// absorbed (each either retried or surfaced as the final error).
func (c *Client) ShedSeen() uint64 { return c.nshed.Load() }

// Predict streams one batch to session id, creating the session with the
// named predictor if it does not exist ("" = server default).
func (c *Client) Predict(ctx context.Context, id, predictor string, batch []core.Branch) (*PredictResponse, error) {
	// The body is not pooled: the transport may still be reading a
	// request body after Do returns, and a retry resends it.
	body := AppendPredictRequest(make([]byte, 0, 64*len(batch)+len(predictor)+len(c.Fingerprint)+64),
		predictor, c.Fingerprint, batch)
	out := PredictResponse{Predictions: make([]BranchPrediction, 0, len(batch))}
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/predict", body, &out); err != nil {
		return nil, err
	}
	// A duplicate reply (gateway-resolved resend) carries statistics but no
	// per-branch predictions — the length contract only binds fresh
	// executions.
	if !out.Duplicate && len(out.Predictions) != len(batch) {
		return nil, fmt.Errorf("serve client: sent %d branches, got %d predictions", len(batch), len(out.Predictions))
	}
	return &out, nil
}

// SessionStats fetches a session's running statistics.
func (c *Client) SessionStats(ctx context.Context, id string) (*SessionFinal, error) {
	var out SessionFinal
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CloseSession deletes a session and returns its final statistics.
func (c *Client) CloseSession(ctx context.Context, id string) (*SessionFinal, error) {
	var out SessionFinal
	if err := c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ExportSession pulls session id's checkpoint blob from the admin
// transfer API. The bytes are an opaque, self-validating snapshot —
// meaningful only to ImportSession on another llbpd. Deliberately
// single-attempt regardless of the retry policy: the cluster tier owns
// transfer retries (each retry re-exports, so a torn read is never
// replayed).
func (c *Client) ExportSession(ctx context.Context, id string) ([]byte, error) {
	path := "/admin/v1/sessions/" + id + "/export"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(http.MethodPost, path, resp)
	}
	return io.ReadAll(resp.Body)
}

// ImportSession installs an exported checkpoint blob as session id on
// the server, replacing any existing session under that ID. A corrupt
// blob fails with an error satisfying errors.Is(err, ErrSnapshotCorrupt)
// and installs nothing. Single-attempt, like ExportSession.
func (c *Client) ImportSession(ctx context.Context, id string, blob []byte) (*SessionFinal, error) {
	path := "/admin/v1/sessions/" + id + "/import"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(http.MethodPost, path, resp)
	}
	var out SessionFinal
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ImportSessionAt is ImportSession stamped with a replica fence epoch
// (the X-LLBP-Epoch header): a fenced-off destination rejects the
// transfer with ErrStaleEpoch instead of regressing post-failover state.
func (c *Client) ImportSessionAt(ctx context.Context, id string, epoch uint64, blob []byte) (*SessionFinal, error) {
	path := "/admin/v1/sessions/" + id + "/import"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-LLBP-Epoch", strconv.FormatUint(epoch, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(http.MethodPost, path, resp)
	}
	var out SessionFinal
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SetReplicaTarget assigns (or with target "" clears) session id's
// standby on the primary at this client's base URL, under the given
// fence epoch. Single-attempt; the gateway re-asserts placement on its
// own cadence, so a lost assignment heals at the next forward.
func (c *Client) SetReplicaTarget(ctx context.Context, id, target string, epoch uint64) error {
	body, err := json.Marshal(replicaTargetRequest{StandbyURL: target, Epoch: epoch})
	if err != nil {
		return err
	}
	var out replicaReply
	return c.rawJSON(ctx, http.MethodPost, "/admin/v1/sessions/"+url.PathEscape(id)+"/replica", body, &out)
}

// PromoteStandby promotes the warm standby for session id on the server
// into its live session map under the given fence epoch, returning the
// promoted session's record (its WireCursor tells the gateway which
// batches still need replaying). ErrSessionNotFound means no standby was
// installed; ErrStaleEpoch means a newer line of history already fenced
// this one off.
func (c *Client) PromoteStandby(ctx context.Context, id string, epoch uint64) (*SessionFinal, error) {
	body, err := json.Marshal(promoteRequest{Epoch: epoch})
	if err != nil {
		return nil, err
	}
	var out SessionFinal
	if err := c.rawJSON(ctx, http.MethodPost, "/admin/v1/sessions/"+url.PathEscape(id)+"/promote", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DropStandby discards the warm standby for session id on the server
// (best-effort cleanup when a session closes or moves).
func (c *Client) DropStandby(ctx context.Context, id string) error {
	var out replicaReply
	return c.rawJSON(ctx, http.MethodDelete, "/admin/v1/sessions/"+url.PathEscape(id)+"/standby", nil, &out)
}

// rawJSON is a single-attempt JSON round-trip outside the retry policy
// (replica-admin calls are owned by the gateway's own retry loops).
func (c *Client) rawJSON(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return apiError(method, path, resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError decodes a non-200 response's versioned error envelope into a
// typed *APIError (falling back to a bare status error).
func apiError(method, path string, resp *http.Response) error {
	var er errorReply
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&er) == nil && er.Error.Message != "" {
		return fmt.Errorf("serve client: %s %s: %w", method, path,
			&APIError{Code: er.Error.Code, Message: er.Error.Message, Status: resp.StatusCode})
	}
	return fmt.Errorf("serve client: %s %s: status %d", method, path, resp.StatusCode)
}

// ServerStats fetches the server-wide snapshot from /v1/stats.
func (c *Client) ServerStats(ctx context.Context) (*StatsSnapshot, error) {
	var out StatsSnapshot
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// do performs one logical API call, resending per the retry policy. Each
// failed attempt reports whether it is safe to resend (see Client's
// idempotency rules) and any Retry-After hint the server sent.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	attempts := 1
	if c.retry.MaxAttempts > 0 {
		attempts = c.retry.MaxAttempts
	}
	for attempt := 1; ; attempt++ {
		err, retryable, retryAfter := c.once(ctx, method, path, body, out)
		if err == nil || !retryable || attempt >= attempts {
			return err
		}
		c.nretries.Add(1)
		select {
		case <-time.After(c.retry.Backoff(attempt, retryAfter)):
		case <-ctx.Done():
			// Surface the server's error, not the cancellation — it is
			// the more diagnostic of the two.
			return err
		}
	}
}

// once performs a single HTTP attempt. The response body is always fully
// drained and closed — on every path, including errors — so the
// keep-alive connection returns to the pool and a retry reuses it instead
// of leaking a conn per failure.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (err error, retryable bool, retryAfter time.Duration) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err, false, 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport failure: no response byte was consumed, so even a
		// predict is safe to resend under the idempotency rules.
		return err, true, 0
	}
	defer func() {
		// Drain whatever the decoder left so the connection is reusable.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()

	if resp.StatusCode != http.StatusOK {
		// 429 and 503 both mean "not applied, resend verbatim"; anything
		// else (4xx contract violations, 500 mid-execution failures) is
		// final.
		retryable = resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if resp.StatusCode == http.StatusTooManyRequests {
			c.nshed.Add(1)
		}
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		// Decode the versioned error envelope into a typed *APIError so
		// callers can errors.Is against the sentinel for its code (and
		// errors.As for the code string itself).
		var er errorReply
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&er) == nil && er.Error.Message != "" {
			return fmt.Errorf("serve client: %s %s: %w", method, path,
				&APIError{Code: er.Error.Code, Message: er.Error.Message, Status: resp.StatusCode}), retryable, retryAfter
		}
		return fmt.Errorf("serve client: %s %s: status %d", method, path, resp.StatusCode), retryable, retryAfter
	}
	// From the first decoded byte of a 2xx the server has applied the
	// request; a decode failure here is never retried.
	if pr, ok := out.(*PredictResponse); ok {
		return readPredictResponse(resp.Body, pr), false, 0
	}
	return json.NewDecoder(resp.Body).Decode(out), false, 0
}

// Backoff computes the wait before resend attempt+1: exponential from
// BaseDelay, capped at MaxDelay, jittered by Jitter, and never shorter
// than the server's retryAfter hint. The HTTP and wire clients and the
// cluster gateway's retry loops all wait through it.
func (p RetryPolicy) Backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if j := p.Jitter; j > 0 {
		d = time.Duration(float64(d) * (1 - j + 2*j*rand.Float64()))
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}
