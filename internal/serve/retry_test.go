package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/faults"
)

// occupyWorker parks the server's single worker slot by streaming one
// batch whose execution carries injected latency, and returns once the
// slot is actually taken. Caller must wg.Wait().
func occupyWorker(t *testing.T, srv *Server, client *Client, wg *sync.WaitGroup) {
	t.Helper()
	branches := workloadBranches(t, "kafka", 4_000)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := client.Predict(context.Background(), "holder", "tsl-8k", branches[:64]); err != nil {
			t.Errorf("holder session: %v", err)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.pool) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker slot never became busy")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShed429 drives the bounded-admission path end to end: with
// one worker pinned by injected execution latency, a second batch that
// cannot get the slot within AdmitTimeout is shed whole — 429, the
// "overloaded" code (errors.Is ErrOverloaded), a Retry-After hint, the
// shed counter — and a retry-armed client then lands the same batch once
// the worker frees up.
func TestAdmissionShed429(t *testing.T) {
	inj := faults.New(7)
	inj.Set(FaultBatchExec, faults.Rule{Latency: 500 * time.Millisecond})
	srv := New(Config{Workers: 1, AdmitTimeout: 20 * time.Millisecond, SessionTTL: -1, Faults: inj})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })

	var wg sync.WaitGroup
	occupyWorker(t, srv, NewClient(hs.URL, hs.Client()), &wg)

	// Typed client, no retry: the shed surfaces as ErrOverloaded.
	plain := NewClient(hs.URL, hs.Client())
	branches := workloadBranches(t, "kafka", 4_000)
	_, err := plain.Predict(context.Background(), "shed-me", "tsl-8k", branches[:64])
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != CodeOverloaded {
		t.Fatalf("envelope = %+v, want status 429 code %q", apiErr, CodeOverloaded)
	}
	if plain.ShedSeen() != 1 {
		t.Fatalf("ShedSeen = %d, want 1", plain.ShedSeen())
	}

	// Raw request: the Retry-After header is on the wire (AdmitTimeout
	// rounds up to 1s).
	body, _ := json.Marshal(PredictRequest{Predictor: "tsl-8k", Branches: []BranchRecord{RecordFromBranch(branches[0])}})
	resp, err := hs.Client().Post(hs.URL+"/v1/sessions/raw/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("status=%d Retry-After=%q, want 429 with Retry-After 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	if snap := srv.Stats(); snap.Shed < 2 {
		t.Fatalf("shed = %d, want >= 2", snap.Shed)
	}

	// Retry-armed client: backoff (floored at the 1s Retry-After) outlasts
	// the injected latency, so the same batch eventually lands.
	retrying := NewClient(hs.URL, hs.Client()).WithRetry(RetryPolicy{MaxAttempts: 10, BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond})
	inj.Clear(FaultBatchExec) // the landed batch itself need not be slow
	got, err := retrying.Predict(context.Background(), "shed-me", "tsl-8k", branches[:64])
	if err != nil {
		t.Fatalf("retrying predict: %v", err)
	}
	if got.Stats.Batches != 1 {
		t.Fatalf("batches = %d after shed+retry, want exactly 1 (no double-apply)", got.Stats.Batches)
	}
	if retrying.Retries() < 1 || retrying.ShedSeen() < 1 {
		t.Fatalf("retries=%d shed=%d, want >= 1 each", retrying.Retries(), retrying.ShedSeen())
	}
	wg.Wait()
}

// TestInjectedPredictFaultIsRetryable: the pre-execution fault site
// reports 503, which the client treats as "not applied" and resends.
func TestInjectedPredictFaultIsRetryable(t *testing.T) {
	inj := faults.New(7)
	inj.Set(FaultPredict, faults.Rule{ErrRate: 1, MaxErrors: 2})
	_, client := testServer(t, Config{Faults: inj})
	client.WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})

	branches := workloadBranches(t, "kafka", 4_000)
	resp, err := client.Predict(context.Background(), "flaky", "tsl-8k", branches[:64])
	if err != nil {
		t.Fatalf("predict through 2 injected faults: %v", err)
	}
	if resp.Stats.Batches != 1 || client.Retries() != 2 {
		t.Fatalf("batches=%d retries=%d, want 1 batch after exactly 2 retries", resp.Stats.Batches, client.Retries())
	}
	if fs := inj.Stats(FaultPredict); fs.Errors != 2 {
		t.Fatalf("injector fired %d errors, want 2", fs.Errors)
	}
}

// TestHealthEndpoints: /healthz stays 200 across a drain (liveness — a
// draining daemon is alive and flushing), while /readyz flips to 503 the
// moment the drain barrier drops.
func TestHealthEndpoints(t *testing.T) {
	srv, client := testServer(t, Config{Workers: 2})
	branches := workloadBranches(t, "kafka", 4_000)
	if _, err := client.Predict(context.Background(), "h", "tsl-8k", branches[:64]); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, HealthReply) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var rep HealthReply
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatalf("%s: bad body %q: %v", path, rec.Body.String(), err)
		}
		return rec.Code, rep
	}

	if code, rep := get("/healthz"); code != 200 || rep.Status != "ok" || rep.Draining || rep.Workers != 2 || rep.Sessions != 1 {
		t.Fatalf("healthz before drain: code=%d rep=%+v", code, rep)
	}
	if code, rep := get("/readyz"); code != 200 || rep.Draining {
		t.Fatalf("readyz before drain: code=%d rep=%+v", code, rep)
	}

	srv.Drain()
	if code, rep := get("/healthz"); code != 200 || rep.Status != "draining" || !rep.Draining {
		t.Fatalf("healthz during drain: code=%d rep=%+v (liveness must hold)", code, rep)
	}
	if code, rep := get("/readyz"); code != http.StatusServiceUnavailable || !rep.Draining {
		t.Fatalf("readyz during drain: code=%d rep=%+v, want 503", code, rep)
	}
}

// Client-side retry mechanics against stub servers ---------------------------

// TestClientRetriesTransportError: a connection killed before any
// response byte means the request cannot have been applied, so the client
// resends — and the second attempt succeeds.
func TestClientRetriesTransportError(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close() // die before a single response byte
			return
		}
		WriteJSON(w, http.StatusOK, SessionFinal{ID: "x", Predictor: "tsl-8k"})
	}))
	t.Cleanup(hs.Close)

	c := NewClient(hs.URL, hs.Client()).WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	fin, err := c.SessionStats(context.Background(), "x")
	if err != nil {
		t.Fatalf("stats after transport error: %v", err)
	}
	if fin.ID != "x" || calls.Load() != 2 || c.Retries() != 1 {
		t.Fatalf("id=%q calls=%d retries=%d, want x/2/1", fin.ID, calls.Load(), c.Retries())
	}
}

// TestClientNeverRetriesConsumedPredict: once a 2xx body has started
// decoding the server has executed the batch — a decode failure must
// surface, not resend (replaying would double-apply learned state).
func TestClientNeverRetriesConsumedPredict(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"session": "x", "predictions": [`)) // truncated mid-body
	}))
	t.Cleanup(hs.Close)

	c := NewClient(hs.URL, hs.Client()).WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	batch := []core.Branch{{PC: 0x100, Kind: core.CondDirect, Taken: true, InstrGap: 1}}
	if _, err := c.Predict(context.Background(), "x", "tsl-8k", batch); err == nil {
		t.Fatal("truncated 2xx body must error")
	}
	if calls.Load() != 1 || c.Retries() != 0 {
		t.Fatalf("calls=%d retries=%d, want exactly 1 request and 0 retries", calls.Load(), c.Retries())
	}
}

// TestClientHonorsRetryAfter: the server's Retry-After floors the backoff
// even when the policy's own delays are near-zero.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, CodeOverloaded, "busy")
			return
		}
		WriteJSON(w, http.StatusOK, SessionFinal{ID: "x"})
	}))
	t.Cleanup(hs.Close)

	c := NewClient(hs.URL, hs.Client()).WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	start := time.Now()
	if _, err := c.SessionStats(context.Background(), "x"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v, want >= ~1s (Retry-After ignored)", elapsed)
	}
	if c.ShedSeen() != 1 || c.Retries() != 1 {
		t.Fatalf("shed=%d retries=%d, want 1/1", c.ShedSeen(), c.Retries())
	}
}

// TestClientDrainsBodyForConnReuse: every attempt's response body is
// drained and closed even on error paths, so all retries ride one
// keep-alive connection instead of leaking a conn per failure.
func TestClientDrainsBodyForConnReuse(t *testing.T) {
	pad := strings.Repeat(" ", 16<<10) // trailing bytes the decoder won't read
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(errorReply{Error: errorBody{Code: CodeOverloaded, Message: "always busy"}})
		w.Write([]byte(pad))
	}))
	var newConns atomic.Int64
	hs.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			newConns.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(hs.Close)

	c := NewClient(hs.URL, hs.Client()).WithRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	_, err := c.SessionStats(context.Background(), "x")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded after exhausting retries", err)
	}
	if c.Retries() != 3 || c.ShedSeen() != 4 {
		t.Fatalf("retries=%d shed=%d, want 3/4", c.Retries(), c.ShedSeen())
	}
	if n := newConns.Load(); n != 1 {
		t.Fatalf("%d TCP connections for 4 attempts, want 1 (bodies not drained?)", n)
	}
}

// TestRetryPolicyBackoff pins the one backoff every retry loop waits
// through: doubling from BaseDelay, the MaxDelay cap, the retryAfter
// floor, and the jitter range.
func TestRetryPolicyBackoff(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name       string
		p          RetryPolicy
		attempt    int
		retryAfter time.Duration
		lo, hi     time.Duration
	}{
		{"first step", RetryPolicy{BaseDelay: 10 * ms, MaxDelay: time.Second}, 1, 0, 10 * ms, 10 * ms},
		{"doubles", RetryPolicy{BaseDelay: 10 * ms, MaxDelay: time.Second}, 4, 0, 80 * ms, 80 * ms},
		{"capped", RetryPolicy{BaseDelay: 10 * ms, MaxDelay: 50 * ms}, 10, 0, 50 * ms, 50 * ms},
		{"cap below base", RetryPolicy{BaseDelay: 80 * ms, MaxDelay: 50 * ms}, 1, 0, 50 * ms, 50 * ms},
		{"hint floors", RetryPolicy{BaseDelay: 10 * ms, MaxDelay: 50 * ms}, 2, 300 * ms, 300 * ms, 300 * ms},
		{"hint below delay", RetryPolicy{BaseDelay: 10 * ms, MaxDelay: 50 * ms}, 3, 5 * ms, 40 * ms, 40 * ms},
		{"jitter range", RetryPolicy{BaseDelay: 100 * ms, MaxDelay: time.Second, Jitter: 0.2}, 2, 0, 160 * ms, 240 * ms},
		{"jitter then cap", RetryPolicy{BaseDelay: 100 * ms, MaxDelay: 150 * ms, Jitter: 0.5}, 5, 0, 75 * ms, 225 * ms},
		{"jitter under hint", RetryPolicy{BaseDelay: 100 * ms, MaxDelay: time.Second, Jitter: 0.2}, 1, time.Second, time.Second, time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var spread bool
			first := tc.p.Backoff(tc.attempt, tc.retryAfter)
			for i := 0; i < 200; i++ {
				d := tc.p.Backoff(tc.attempt, tc.retryAfter)
				if d < tc.lo || d > tc.hi {
					t.Fatalf("Backoff(%d, %v) = %v, want within [%v, %v]", tc.attempt, tc.retryAfter, d, tc.lo, tc.hi)
				}
				spread = spread || d != first
			}
			if jittered := tc.lo != tc.hi; spread != jittered {
				t.Errorf("spread over 200 draws = %v, want %v", spread, jittered)
			}
		})
	}
}
