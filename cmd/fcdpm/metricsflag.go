package main

import (
	"flag"
	"os"

	"fcdpm/internal/obs"
)

// metricsFlag wires the -metrics switch shared by batch and faults: when
// enabled it builds a private obs registry with the sim and pool
// instrument sets, and after the command finishes dumps the whole
// registry in Prometheus text format to stderr (stderr so the summary
// never corrupts a piped results table).
type metricsFlag struct {
	enabled *bool
	reg     *obs.Registry
	sim     *obs.SimMetrics
	pool    *obs.PoolMetrics
}

// addMetricsFlag registers -metrics on fs.
func addMetricsFlag(fs *flag.FlagSet) *metricsFlag {
	return &metricsFlag{
		enabled: fs.Bool("metrics", false,
			"print a Prometheus-text metrics summary to stderr after the run"),
	}
}

// init builds the instrument sets once flags are parsed; no-op (leaving
// every field nil, which the obs instruments treat as "off") when
// -metrics was not given.
func (mf *metricsFlag) init() {
	if !*mf.enabled {
		return
	}
	mf.reg = obs.NewRegistry()
	mf.sim = obs.NewSimMetrics(mf.reg)
	mf.pool = obs.NewPoolMetrics(mf.reg)
}

// dump writes the summary to stderr when -metrics is on.
func (mf *metricsFlag) dump() {
	if mf.reg == nil {
		return
	}
	os.Stderr.WriteString("\n# metrics summary\n")
	mf.reg.WritePrometheus(os.Stderr)
}
