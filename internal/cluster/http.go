package cluster

import (
	"encoding/json"
	"errors"
	"net/http"

	"llbpx/internal/serve"
	"llbpx/internal/stats"
	"llbpx/internal/wire"
)

// HTTP frontend -------------------------------------------------------------
//
// The gateway mirrors the llbpd HTTP API — same paths, same wire types,
// same error envelope — so a client configured for one llbpd points at
// the cluster unchanged. Requests are forwarded downstream over the
// binary protocol with gateway-assigned batch numbers, which upgrades
// plain HTTP clients to the exactly-once resend contract across
// reroutes: a forward whose response was lost is resent and answered as
// a duplicate instead of double-applied.

// ServeHTTP implements http.Handler, with llbpd's panic-to-envelope
// guard.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			serve.WriteError(w, http.StatusInternalServerError, serve.CodeInternal, "internal error: %v", p)
		}
	}()
	g.mux.ServeHTTP(w, r)
}

func (g *Gateway) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions/{id}/predict", g.handlePredict)
	mux.HandleFunc("GET /v1/sessions/{id}", g.handleSessionGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", g.handleSessionDelete)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /admin/v1/backends", g.handleBackendsGet)
	mux.HandleFunc("POST /admin/v1/backends", g.handleBackendJoin)
	mux.HandleFunc("DELETE /admin/v1/backends/{name}", g.handleBackendLeave)
	return mux
}

// writeForwardError maps a failed forward onto the llbpd error contract:
// NACK codes relay with their llbpd status, anything else is a 503 the
// client may retry (the gateway never half-applied anything).
func writeForwardError(w http.ResponseWriter, err error) {
	var ne *wire.NackError
	if errors.As(err, &ne) {
		serve.WriteError(w, nackStatus(ne), ne.Code, "%s", ne.Message)
		return
	}
	serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeInternal, "forward failed: %v", err)
}

// nackStatus maps a downstream NACK code to the HTTP status llbpd itself
// would have used.
func nackStatus(ne *wire.NackError) int {
	switch ne.Code {
	case serve.CodeBadRequest, serve.CodeUnknownPredictor:
		return http.StatusBadRequest
	case serve.CodeSessionNotFound:
		return http.StatusNotFound
	case serve.CodePredictorConflict:
		return http.StatusConflict
	case serve.CodeBatchTooLarge:
		return http.StatusRequestEntityTooLarge
	case serve.CodeOverloaded:
		return http.StatusTooManyRequests
	case serve.CodeDraining:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// wireSessionStats converts downstream wire statistics to the HTTP
// session-stats shape, deriving MPKI and accuracy exactly like the
// server does.
func wireSessionStats(st wire.WireStats) serve.SessionStats {
	bs := stats.BranchStats{
		Instructions:  st.Instructions,
		CondBranches:  st.CondBranches,
		Mispredicts:   st.Mispredicts,
		UncondCount:   st.UncondCount,
		SecondLevelOK: st.SecondLevelOK,
	}
	return serve.SessionStats{
		Instructions:  st.Instructions,
		CondBranches:  st.CondBranches,
		Mispredicts:   st.Mispredicts,
		UncondCount:   st.UncondCount,
		SecondLevelOK: st.SecondLevelOK,
		Batches:       st.Batches,
		MPKI:          bs.MPKI(),
		Accuracy:      bs.Accuracy(),
	}
}

func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	call, aerr := serve.ReadPredict(w, r, g.cfg.MaxBatch)
	if aerr != nil {
		serve.WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Message)
		return
	}
	defer call.Release()

	gs := g.session(id, true)
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		serve.WriteError(w, http.StatusNotFound, serve.CodeSessionNotFound, "session %q is closed", id)
		return
	}
	var ok wire.PredictOK
	dup, err := g.forward(r.Context(), gs, call.Predictor, 0, call.Branches, &ok)
	if err != nil {
		writeForwardError(w, err)
		return
	}
	resp := serve.PredictResponse{
		Session:   id,
		Predictor: string(ok.Predictor),
		Created:   ok.Flags&wire.FlagCreated != 0,
		Restored:  ok.Flags&wire.FlagRestored != 0,
		Duplicate: dup,
		Stats:     wireSessionStats(ok.Stats),
	}
	if !dup {
		preds := call.Predictions()
		for i := range preds {
			preds[i] = serve.BranchPrediction{
				Cond:        wire.Bit(ok.Cond, i),
				Taken:       wire.Bit(ok.Taken, i),
				Correct:     wire.Bit(ok.Correct, i),
				SecondLevel: wire.Bit(ok.Second, i),
			}
		}
		resp.Predictions = preds
	}
	call.WriteResponse(w, &resp)
}

func (g *Gateway) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	gs := g.session(id, false)
	if gs == nil {
		serve.WriteError(w, http.StatusNotFound, serve.CodeSessionNotFound, "no session %q", id)
		return
	}
	gs.mu.Lock()
	owner := gs.owner
	closed := gs.closed
	gs.mu.Unlock()
	bs := g.backend(owner)
	if closed || bs == nil {
		serve.WriteError(w, http.StatusNotFound, serve.CodeSessionNotFound, "no session %q", id)
		return
	}
	fin, err := bs.hc.SessionStats(r.Context(), id)
	if err != nil {
		var ae *serve.APIError
		if errors.As(err, &ae) {
			serve.WriteError(w, ae.Status, ae.Code, "%s", ae.Message)
			return
		}
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeInternal, "owner unreachable: %v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, fin)
}

func (g *Gateway) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	pred, st, err := g.closeSession(r.Context(), id)
	if err != nil {
		writeForwardError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, serve.SessionFinal{ID: id, Predictor: pred, Stats: wireSessionStats(st)})
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, g.Stats())
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.metrics.reg.WritePrometheus(w)
}

// healthReply is the gateway's health body: live when the process runs,
// ready while at least one backend is routable.
type healthReply struct {
	Status       string `json:"status"`
	BackendsLive int    `json:"backends_live"`
}

func (g *Gateway) liveBackends() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, bs := range g.backends {
		if bs.alive.Load() {
			n++
		}
	}
	return n
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, healthReply{Status: "ok", BackendsLive: g.liveBackends()})
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	live := g.liveBackends()
	status := http.StatusOK
	state := "ok"
	if live == 0 {
		status = http.StatusServiceUnavailable
		state = "no live backends"
	}
	serve.WriteJSON(w, status, healthReply{Status: state, BackendsLive: live})
}

func (g *Gateway) handleBackendsGet(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, g.Stats().Backends)
}

func (g *Gateway) handleBackendJoin(w http.ResponseWriter, r *http.Request) {
	var b Backend
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&b); err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, "bad backend body: %v", err)
		return
	}
	if err := g.AddBackend(b); err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, g.Stats().Backends)
}

func (g *Gateway) handleBackendLeave(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := g.RemoveBackend(name); err != nil {
		serve.WriteError(w, http.StatusNotFound, serve.CodeBadRequest, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, g.Stats().Backends)
}
