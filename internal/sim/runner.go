package sim

import (
	"context"
	"time"
)

// RecordLevel selects how much per-run history the simulator keeps.
type RecordLevel int

// Record levels.
const (
	// RecordAuto (the zero value) derives the level from the legacy
	// Config.RecordProfile / Config.RecordSlots booleans, so existing
	// configurations keep their behavior.
	RecordAuto RecordLevel = iota
	// RecordFuelOnly keeps scalar totals only — no Profile, Charges, or
	// SlotLog appends regardless of the booleans. Experiment comparisons
	// and the server cache path need nothing more, and it is the level
	// at which a Runner's steady-state runs allocate nothing.
	RecordFuelOnly
	// RecordFull records the per-piece profile, the charge trajectory,
	// and the per-slot audit log.
	RecordFull
)

// String names the record level.
func (l RecordLevel) String() string {
	switch l {
	case RecordAuto:
		return "auto"
	case RecordFuelOnly:
		return "fuel-only"
	case RecordFull:
		return "full"
	default:
		return "RecordLevel(?)"
	}
}

// resolveRecord resolves a configuration's Record level against the
// legacy RecordProfile/RecordSlots booleans.
func resolveRecord(cfg *Config) (profile, slots bool) {
	switch cfg.Record {
	case RecordFuelOnly:
		return false, false
	case RecordFull:
		return true, true
	default:
		return cfg.RecordProfile, cfg.RecordSlots
	}
}

// PiecePlanner is the optional allocation-free face of a Policy:
// SegmentPlanInto appends the segment's pieces to buf and returns the
// extended slice, letting the simulator reuse one scratch buffer across
// segments instead of receiving a freshly allocated plan per call. The
// semantics must match SegmentPlan exactly; the simulator prefers this
// interface whenever the active policy implements it.
type PiecePlanner interface {
	SegmentPlanInto(seg Segment, charge float64, buf []Piece) []Piece
}

// Runner executes one fixed configuration repeatedly without per-run
// allocations: the scratch arena (segment and piece buffers, the result
// and its slices, the policy chain, default predictors, the storage
// working copy, and the fuel-map memo) is sized once at construction and
// rewound by an explicit reset before every run.
//
// At RecordFuelOnly with no fault schedule, steady-state calls to Run
// allocate nothing (pinned by a testing.AllocsPerRun regression test);
// fault-injected runs rebuild the injector per run so the noise stream
// stays seed-deterministic.
//
// The *Result returned by Run aliases the Runner's internal buffers: it
// is valid until the next Run call. Callers that keep results across
// runs must copy what they need. A Runner is not safe for concurrent
// use; run one per goroutine. Stateful collaborators handed in via the
// configuration (policies, predictors, the timeout adapter) are reset
// through their own Reset hooks where the interface provides one — the
// TimeoutAdapter interface does not, so an adapter keeps learning across
// runs exactly as it does across separate sim.Run calls today.
type Runner struct {
	st state
}

// NewRunner validates the configuration and builds the reusable run
// state. The configuration (including the trace) must not be mutated
// while the Runner is in use.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Runner{}
	r.st.init(cfg)
	return r, nil
}

// Run executes one simulation over the configured trace.
func (r *Runner) Run() (*Result, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run under a context: cancellation or deadline expiry
// stops the run between slots with a *CanceledError.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	m := r.st.cfg.Metrics
	if m == nil {
		r.st.reset()
		return r.st.run(ctx)
	}
	start := time.Now()
	hits0, misses0 := r.st.memo.Stats()
	r.st.reset()
	res, err := r.st.run(ctx)
	if err != nil {
		return nil, err
	}
	hits1, misses1 := r.st.memo.Stats()
	m.RecordRun(res.Slots, res.Fuel, hits1-hits0, misses1-misses0, time.Since(start))
	return res, nil
}
