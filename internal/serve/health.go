package serve

import (
	"net/http"
	"strconv"
	"time"
)

// Health endpoints. /healthz is liveness: it answers 200 for as long as
// the process can serve HTTP at all, including while draining (a draining
// daemon is alive and flushing — killing it because a liveness probe went
// red would drop in-flight batches). /readyz is readiness: it turns 503
// the moment Drain begins so load balancers stop routing new work, and it
// reports worker-pool saturation so operators can see overload building
// before batches are shed.

// HealthReply is the JSON body of GET /healthz and GET /readyz.
type HealthReply struct {
	Status string `json:"status"` // "ok", "draining"
	// Draining reports the drain barrier's state (also implied by a 503
	// from /readyz).
	Draining bool `json:"draining"`
	// Workers and Busy describe the worker pool: Busy == Workers means
	// every slot is executing and new batches are queueing toward the
	// AdmitTimeout shed point.
	Workers int `json:"workers"`
	Busy    int `json:"busy"`
	// Overloaded is Busy == Workers at sampling time.
	Overloaded bool `json:"overloaded"`
	// Sessions is the live session count.
	Sessions int `json:"sessions"`
}

func (s *Server) healthReply() HealthReply {
	busy := len(s.pool)
	rep := HealthReply{
		Status:     "ok",
		Draining:   s.Draining(),
		Workers:    s.cfg.Workers,
		Busy:       busy,
		Overloaded: busy >= s.cfg.Workers,
		Sessions:   s.sessions.len(),
	}
	if rep.Draining {
		rep.Status = "draining"
	}
	return rep
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.healthReply())
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rep := s.healthReply()
	status := http.StatusOK
	if rep.Draining {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, rep)
}

// retryAfterSeconds renders a Retry-After header value for a shed batch:
// the admit timeout rounded up to whole seconds (never less than 1), a
// deliberately coarse hint that spreads retries without leaking queue
// internals.
func retryAfterSeconds(admit time.Duration) string {
	secs := int64((admit + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
