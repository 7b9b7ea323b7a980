package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/tournament"
)

// Wire types ---------------------------------------------------------------

// BranchRecord is the wire form of one core.Branch. Kind uses the
// core.BranchKind numeric encoding (0=cond, 1=jump, 2=call, 3=ret,
// 4=ijump).
type BranchRecord struct {
	PC     uint64 `json:"pc"`
	Target uint64 `json:"target,omitempty"`
	Kind   uint8  `json:"kind"`
	Taken  bool   `json:"taken"`
	Gap    uint32 `json:"gap,omitempty"`
}

// ToBranch converts the wire record to the core type.
func (r BranchRecord) ToBranch() core.Branch {
	return core.Branch{PC: r.PC, Target: r.Target, Kind: core.BranchKind(r.Kind), Taken: r.Taken, InstrGap: r.Gap}
}

// RecordFromBranch converts a core.Branch to its wire form.
func RecordFromBranch(b core.Branch) BranchRecord {
	return BranchRecord{PC: b.PC, Target: b.Target, Kind: uint8(b.Kind), Taken: b.Taken, Gap: b.InstrGap}
}

// BranchPrediction is the per-branch reply. For unconditional branches
// Cond is false and Taken/Correct are trivially true.
type BranchPrediction struct {
	Cond        bool `json:"cond"`
	Taken       bool `json:"taken"`
	Correct     bool `json:"correct"`
	SecondLevel bool `json:"second_level,omitempty"`
}

// PredictRequest is the body of POST /v1/sessions/{id}/predict.
type PredictRequest struct {
	// Predictor names the registry configuration; consulted only when the
	// batch creates the session (empty = server default). A non-empty name
	// that conflicts with an existing session's predictor is a 409.
	Predictor string `json:"predictor,omitempty"`
	// WorkloadFingerprint optionally declares the session's workload
	// identity (any stable string — a trace name, a binary hash).
	// Consulted only when the batch creates the session. Under
	// -store-share, evicted sessions with identical fingerprints share
	// their frozen predictor blobs; live predictions are never shared, so
	// a fingerprint never changes a session's prediction stream.
	WorkloadFingerprint string `json:"workload_fingerprint,omitempty"`
	// Branches is the batch, in retire order.
	Branches []BranchRecord `json:"branches"`
}

// PredictResponse is the reply: predictions align 1:1 with the request's
// branches, and Stats is the session's running total after the batch.
type PredictResponse struct {
	Session   string `json:"session"`
	Predictor string `json:"predictor"`
	Created   bool   `json:"created,omitempty"`
	// Restored reports that this batch revived the session from an
	// on-disk checkpoint (set only alongside Created).
	Restored bool `json:"restored,omitempty"`
	// Duplicate reports that the batch was already applied under the
	// exactly-once sequencing contract and was answered from the session's
	// running statistics without re-executing — in which case Predictions
	// is empty (the original per-branch reply is gone). llbpd itself never
	// sets this on the HTTP path; the cluster gateway does when a resent
	// forward turns out to be a duplicate downstream.
	Duplicate   bool               `json:"duplicate,omitempty"`
	Predictions []BranchPrediction `json:"predictions"`
	Stats       SessionStats       `json:"stats"`
}

// Routing ------------------------------------------------------------------

// ServeHTTP implements http.Handler. A handler panic is converted into a
// 500 with the "internal" error code instead of tearing down the
// connection, so clients always see the envelope.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			WriteError(w, http.StatusInternalServerError, CodeInternal, "internal error: %v", p)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions/{id}/predict", s.handlePredict)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("GET /v1/sessions/{id}/chooser", s.handleSessionChooser)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/predictors", s.handlePredictors)
	mux.HandleFunc("POST /admin/v1/sessions/{id}/export", s.handleSessionExport)
	mux.HandleFunc("POST /admin/v1/sessions/{id}/import", s.handleSessionImport)
	mux.HandleFunc("POST /admin/v1/sessions/{id}/replica", s.handleReplicaTarget)
	mux.HandleFunc("POST /admin/v1/sessions/{id}/standby", s.handleStandbyInstall)
	mux.HandleFunc("POST /admin/v1/sessions/{id}/promote", s.handleStandbyPromote)
	mux.HandleFunc("DELETE /admin/v1/sessions/{id}/standby", s.handleStandbyDrop)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// WriteJSON writes v as the JSON body of a reply with the given status.
// The gateway writes its replies through it too, so a client sees the
// same bytes from either.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError emits the versioned error envelope: a stable machine-readable
// code plus a free-form message.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, errorReply{Error: errorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// Handlers -----------------------------------------------------------------

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	call, aerr := ReadPredict(w, r, s.cfg.MaxBatch)
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Message)
		return
	}
	defer call.Release()

	// Fault site: fires before any state is touched, so an injected
	// failure is reported as a retryable 503 — the batch was not applied.
	if ferr := s.cfg.Faults.Fire(FaultPredict); ferr != nil {
		WriteError(w, http.StatusServiceUnavailable, CodeInternal, "injected fault: %v", ferr)
		return
	}

	// From here the batch counts as in-flight: drain waits for it and it
	// is never dropped part-way.
	if !s.beginBatch() {
		s.metrics.rejected.Inc()
		WriteError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	defer s.endBatch()

	sess, created, restored, err := s.AcquireSession(id, call.Predictor, call.WorkloadFingerprint)
	if err != nil {
		switch {
		case errors.Is(err, ErrPredictorConflict):
			WriteError(w, http.StatusConflict, CodePredictorConflict, "%v", err)
		case errors.Is(err, ErrUnknownPredictor):
			WriteError(w, http.StatusBadRequest, CodeUnknownPredictor, "%v", err)
		default:
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		}
		return
	}
	defer s.ReleaseSessionRef(sess)

	// Bounded worker pool: a slot gates the CPU-heavy predictor walk so a
	// flood of batches queues here instead of oversubscribing the host —
	// but only for AdmitTimeout. A batch that cannot get a slot in time is
	// shed whole with 429 + Retry-After (predictor state untouched, so the
	// client retries it verbatim), and a batch whose client disconnected
	// while queueing is dropped without execution. The pool's occupancy at
	// admission is the queue-depth sample: how many workers were already
	// busy when this batch arrived.
	depth := len(s.pool)
	if aerr := s.acquireSlot(r.Context()); aerr != nil {
		if errors.Is(aerr, ErrOverloaded) {
			s.metrics.shed.Inc()
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.AdmitTimeout))
			WriteError(w, http.StatusTooManyRequests, CodeOverloaded,
				"no worker slot within %v (%d executing); batch shed, retry safe",
				s.cfg.AdmitTimeout, len(s.pool))
			return
		}
		// Client gone: nothing to answer, nothing was executed.
		s.metrics.cancelled.Inc()
		return
	}
	s.cfg.Faults.Delay(FaultBatchExec)
	start := time.Now()
	preds := call.Predictions()
	delta, snap := sess.executeBatch(call.Branches, preds)
	elapsed := time.Since(start)
	s.releaseSlot()
	s.metrics.observeBatch(sess.PredictorName, s.sessions.index(id), delta, elapsed, depth)
	s.noteReplicaBatch(id)
	// The batch may have grown the session's pattern store past the pool
	// budget; spill colder sessions before answering.
	s.reclaimStore(sess)

	call.WriteResponse(w, &PredictResponse{
		Session:     id,
		Predictor:   sess.PredictorName,
		Created:     created,
		Restored:    restored,
		Predictions: preds,
		Stats:       snap,
	})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.sessions.get(id)
	if sess == nil {
		WriteError(w, http.StatusNotFound, CodeSessionNotFound, "no session %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, sess.final())
}

// handleSessionChooser is GET /v1/sessions/{id}/chooser: the tournament
// meta-predictor's per-member chooser dump (reliability counters, chosen
// counts). Sessions running a non-tournament predictor are a 400 — the
// endpoint is meaningful only when there is a chooser table to read.
func (s *Server) handleSessionChooser(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.sessions.get(id)
	if sess == nil {
		WriteError(w, http.StatusNotFound, CodeSessionNotFound, "no session %q", id)
		return
	}
	cp, ok := sess.pred.(interface {
		ChooserStats() tournament.ChooserStats
	})
	if !ok {
		WriteError(w, http.StatusBadRequest, CodeBadRequest,
			"session %q predictor %q has no chooser (not a tournament)", id, sess.PredictorName)
		return
	}
	sess.mu.Lock()
	cs := cp.ChooserStats()
	sess.mu.Unlock()
	WriteJSON(w, http.StatusOK, cs)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fin, ok := s.CloseSession(id)
	if !ok {
		WriteError(w, http.StatusNotFound, CodeSessionNotFound, "no session %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, fin)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

// predictorsReply is the GET /v1/predictors body.
type predictorsReply struct {
	Predictors []PredictorInfo `json:"predictors"`
}

func (s *Server) handlePredictors(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, predictorsReply{Predictors: Predictors()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.reg.WritePrometheus(w)
}
