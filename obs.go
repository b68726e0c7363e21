package fcdpm

import "fcdpm/internal/obs"

// Observability types: the dependency-free metrics registry shared by
// the simulator, the run-orchestration pool, and the serving tier.
// Register a SimMetrics / PoolMetrics bundle on one registry, hand the
// bundles to SimConfig.Metrics and FaultSweepOptions.Metrics, and render
// everything with MetricsRegistry.WritePrometheus — the same series the
// server's GET /metrics exposes.
type (
	// MetricsRegistry holds registered instruments and renders them in
	// the Prometheus text exposition format.
	MetricsRegistry = obs.Registry
	// MetricsLabel is one constant key="value" pair on a series.
	MetricsLabel = obs.Label
	// SimMetrics is the simulator's instrument set (runs, slots, fuel,
	// memo hits/misses, wall-time histogram).
	SimMetrics = obs.SimMetrics
	// PoolMetrics is the orchestration pool's instrument set (queue
	// depth, resolutions, retries, breaker transitions).
	PoolMetrics = obs.PoolMetrics
	// BatchMetrics is the batched simulator's instrument set (batch
	// count, lane-width histogram, slot executions collapsed duplicate
	// lanes inherited).
	BatchMetrics = obs.BatchMetrics
	// Tracer is the lightweight span facility: monotonic timestamps,
	// optional per-span hooks, slow-span threshold logging.
	Tracer = obs.Tracer
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSimMetrics registers the simulator series on r and returns the
// bundle to assign to SimConfig.Metrics.
func NewSimMetrics(r *MetricsRegistry) *SimMetrics { return obs.NewSimMetrics(r) }

// NewPoolMetrics registers the pool series on r and returns the bundle
// to assign to RunnerOptions.Metrics.
func NewPoolMetrics(r *MetricsRegistry) *PoolMetrics { return obs.NewPoolMetrics(r) }

// NewBatchMetrics registers the batched-simulation series on r and
// returns the bundle to assign to BatchRunner.Metrics.
func NewBatchMetrics(r *MetricsRegistry) *BatchMetrics { return obs.NewBatchMetrics(r) }
