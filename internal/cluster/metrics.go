package cluster

import (
	"fmt"
	"sort"
	"time"

	"llbpx/internal/obs"
	"llbpx/internal/serve"
)

// latencyBuckets mirrors internal/serve: power-of-two microsecond
// buckets, 28 of which cover ~134 s.
const latencyBuckets = 28

// gwMetrics is the gateway's observability surface: the llbpgw_* metric
// families, on the same internal/obs machinery (and with the same golden
// exposition lock discipline) as llbpd's.
type gwMetrics struct {
	start time.Time
	reg   *obs.Registry

	routedBatches   *obs.Counter // batches forwarded and acknowledged
	forwardErrors   *obs.Counter // failed forward attempts (injected, transport, NACK)
	forwardRetries  *obs.Counter // forward re-attempts performed
	reroutes        *obs.Counter // sessions rerouted bare (dead source, failed transfer)
	cursorResyncs   *obs.Counter // gateway-assigned cursors resynchronized from owner stats
	migrations      *obs.Counter // live session transfers completed
	migrationErrors *obs.Counter // relocations whose transfer attempts were exhausted
	promotions      *obs.Counter // standby promotions completed (warm failovers)
	promotionErrors *obs.Counter // promotions abandoned to a bare reroute
	replicaSyncs    *obs.Counter // standby placements (re)asserted on primaries
	replayedBatches *obs.Counter // tail batches replayed into promoted standbys

	migrationDur *obs.Histogram // completed migration duration, µs

	// wire is the wire frontend's pipeline metrics. Only Conns (wire
	// frontend connections accepted) is exported; the rest stay
	// unregistered.
	wire serve.WireMetrics
}

func newGwMetrics(g *Gateway) *gwMetrics {
	reg := obs.NewRegistry("llbpgw_")
	m := &gwMetrics{
		start: time.Now(),
		reg:   reg,

		routedBatches:   reg.Counter("routed_batches_total"),
		forwardErrors:   reg.Counter("forward_errors_total"),
		forwardRetries:  reg.Counter("forward_retries_total"),
		reroutes:        reg.Counter("reroutes_total"),
		cursorResyncs:   reg.Counter("cursor_resyncs_total"),
		migrations:      reg.Counter("migrations_total"),
		migrationErrors: reg.Counter("migration_errors_total"),
		promotions:      reg.Counter("promotions_total"),
		promotionErrors: reg.Counter("promotion_errors_total"),
		replicaSyncs:    reg.Counter("replica_syncs_total"),
		replayedBatches: reg.Counter("replica_replayed_batches_total"),

		migrationDur: reg.Histogram("migration_duration_us", latencyBuckets),

		wire: serve.WireMetrics{
			Conns:        reg.Counter("wire_conns_total"),
			FramesRx:     new(obs.Counter),
			FramesTx:     new(obs.Counter),
			BytesRx:      new(obs.Counter),
			BytesTx:      new(obs.Counter),
			Nacks:        new(obs.Counter),
			FrameLatency: obs.NewHistogram(latencyBuckets),
		},
	}
	reg.GaugeFunc("uptime_seconds", func() float64 { return time.Since(m.start).Seconds() })
	reg.GaugeFunc("sessions_known", func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(len(g.sessions))
	})
	reg.GaugeFunc("backends_live", func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		n := 0
		for _, bs := range g.backends {
			if bs.alive.Load() {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("ring_version", func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(g.ringVersion)
	})
	reg.OnCollect(func(w *obs.ExpoWriter) { m.collect(w, g) })
	return m
}

// collect contributes the per-backend labeled gauges: health and owned
// session counts.
func (m *gwMetrics) collect(w *obs.ExpoWriter, g *Gateway) {
	g.mu.Lock()
	perOwner := make(map[string]int)
	for _, gs := range g.sessions {
		perOwner[gs.owner]++
	}
	type row struct {
		name  string
		alive bool
		owned int
	}
	rows := make([]row, 0, len(g.backends))
	for name, bs := range g.backends {
		rows = append(rows, row{name: name, alive: bs.alive.Load(), owned: perOwner[name]})
	}
	g.mu.Unlock()
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	w.Family("backend_up", "gauge")
	for _, r := range rows {
		up := 0.0
		if r.alive {
			up = 1
		}
		w.Labeled("backend_up", backendLabel(r.name), up)
	}
	w.Family("backend_sessions", "gauge")
	for _, r := range rows {
		w.LabeledInt("backend_sessions", backendLabel(r.name), uint64(r.owned))
	}
}

func backendLabel(name string) string { return fmt.Sprintf("backend=%q", name) }
