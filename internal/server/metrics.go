package server

import (
	"net/http"
	"time"

	"fcdpm/internal/obs"
)

// slowRequestThreshold is the tracer's slow-span bar: requests beyond it
// are logged through Options.Logf. Run submissions legitimately block on
// simulation work, so the bar is generous.
const slowRequestThreshold = 30 * time.Second

// serverMetrics is the service's unified instrument set: one obs
// registry behind /metrics, /v1/stats, and the operational log. The sim
// and pool bundles are handed down to the simulator configs and the
// runner pool, so every layer records into the same series.
type serverMetrics struct {
	registry *obs.Registry
	sim      *obs.SimMetrics
	pool     *obs.PoolMetrics

	runsSubmitted *obs.Counter
	runsDone      *obs.Counter
	runsFailed    *obs.Counter
	runsShed      *obs.Counter
	runsCoalesced *obs.Counter
	inflight      *obs.Gauge

	// latency holds one request-latency histogram per route, keyed by
	// the span name the tracer reports. Populated at route registration,
	// read-only afterwards.
	latency map[string]*obs.Histogram
	tracer  obs.Tracer
}

func newServerMetrics(logf func(format string, args ...any)) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		registry:      reg,
		sim:           obs.NewSimMetrics(reg),
		pool:          obs.NewPoolMetrics(reg),
		runsSubmitted: reg.Counter("fcdpm_server_runs_submitted_total", "Scenario runs submitted to the pool (cache misses)."),
		runsDone:      reg.Counter("fcdpm_server_runs_done_total", "Scenario runs that completed."),
		runsFailed:    reg.Counter("fcdpm_server_runs_failed_total", "Scenario runs that failed or were interrupted."),
		runsShed:      reg.Counter("fcdpm_server_runs_shed_total", "Scenario runs shed at admission."),
		runsCoalesced: reg.Counter("fcdpm_server_runs_coalesced_total", "Requests and sweep cells coalesced onto an identical run."),
		inflight:      reg.Gauge("fcdpm_server_inflight_tasks", "Pool tasks submitted and not yet resolved."),
		latency:       make(map[string]*obs.Histogram),
	}
	m.tracer = obs.Tracer{
		Slow: slowRequestThreshold,
		Logf: logf,
		OnEnd: func(name string, d time.Duration) {
			m.latency[name].Observe(d.Seconds())
		},
	}
	return m
}

// endpoint registers the route's latency series and returns the wrapped
// handler. Route names become the `endpoint` label, bounded by code.
func (m *serverMetrics) endpoint(route string, h http.HandlerFunc) http.HandlerFunc {
	m.latency[route] = m.registry.Histogram(
		"fcdpm_http_request_seconds", "Request latency by endpoint.",
		obs.DurationBuckets, obs.Label{Key: "endpoint", Value: route})
	return func(w http.ResponseWriter, r *http.Request) {
		sp := m.tracer.Start(route)
		defer sp.End()
		h(w, r)
	}
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.registry.WritePrometheus(w)
}
