package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fcdpm/internal/obs"
	"fcdpm/internal/workload"
)

// Lane is one scenario variant of a batch.
type Lane struct {
	// Cfg is the lane's simulation configuration. All lanes of a batch
	// must share one trace (pointer-equal or slot-for-slot equal).
	Cfg Config
	// Key, when non-empty, asserts that two lanes with equal keys
	// describe the *same simulation* — typically the content address a
	// scenario spec already carries (config.Scenario.CacheKey). It is
	// the only grouping rule: a lane without a key runs alone. An
	// incorrect assertion yields silently wrong results, so only derive
	// keys from canonical spec content.
	Key string
}

// LaneResult is one lane's outcome. Res aliases the BatchRunner's
// internal buffers and is valid until the next Run call, mirroring the
// scalar Runner contract; it is nil when Err is set.
type LaneResult struct {
	Res *Result
	Err error
}

// batchLane is the per-lane bookkeeping: how much of its group's
// recording the lane keeps, and where its projection lives.
type batchLane struct {
	res        *Result
	recProfile bool
	recSlots   bool
	metrics    *obs.SimMetrics
}

// batchGroup is one executing simulation: the state built from the first
// member's configuration plus every lane it stands in for.
type batchGroup struct {
	st      *state
	members []int // lane indices, in submission order
}

// BatchRunner executes K scenario variants over one trace. Lanes with
// equal non-empty Lane.Keys form a run group: the group simulates once —
// at the union of the members' record levels — and every member receives
// a projected copy of the result, so N lanes asserting the same
// simulation (coalesced server requests, duplicate sweep cells) cost one
// simulation instead of N; an unkeyed lane is a group of its own.
// Distinct groups run one after another on the scalar path, in
// first-member order, so every lane's Result is byte-identical to a
// sequential Runner run of the same configuration.
//
// Like Runner, a BatchRunner is reusable and not safe for concurrent
// use; steady-state Run calls on fault-free lanes allocate nothing.
type BatchRunner struct {
	// Metrics, when non-nil, receives one RecordBatch per completed run:
	// the lane width and how many slot executions follower lanes
	// inherited from their group. Per-lane Config.Metrics sinks still
	// receive their RecordRun as if the lanes had run sequentially (a
	// group's memo deltas are folded into its first instrumented lane;
	// its wall time is split evenly across its members).
	Metrics *obs.BatchMetrics

	lanes   []batchLane
	groups  []batchGroup
	results []LaneResult
}

// NewBatchRunner validates the lanes, groups them, and builds the
// reusable run states. The configurations (including the shared trace)
// must not be mutated while the BatchRunner is in use.
func NewBatchRunner(lanes []Lane) (*BatchRunner, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("sim: batch with no lanes")
	}
	for i := range lanes {
		if err := lanes[i].Cfg.validate(); err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
	}
	trace := lanes[0].Cfg.Trace
	for i := 1; i < len(lanes); i++ {
		if !sameTrace(trace, lanes[i].Cfg.Trace) {
			return nil, fmt.Errorf("sim: batch lane %d trace differs from lane 0; a batch walks one trace", i)
		}
	}

	b := &BatchRunner{
		lanes:   make([]batchLane, len(lanes)),
		results: make([]LaneResult, len(lanes)),
	}

	// Group lanes by Key; an unkeyed lane gets a singleton group.
	groupOf := make(map[string]int, len(lanes))
	for i := range lanes {
		cfg := &lanes[i].Cfg
		key := lanes[i].Key
		gi, ok := groupOf[key]
		if !ok {
			gi = len(b.groups)
			b.groups = append(b.groups, batchGroup{st: &state{}})
			b.groups[gi].st.init(*cfg)
			if key != "" {
				groupOf[key] = gi
			}
		}
		g := &b.groups[gi]
		g.members = append(g.members, i)

		recProfile, recSlots := resolveRecord(cfg)
		b.lanes[i] = batchLane{
			res:        &Result{FuelByKind: make(map[SegmentKind]float64, numSegmentKinds)},
			recProfile: recProfile,
			recSlots:   recSlots,
			metrics:    cfg.Metrics,
		}
		// The group records the union of its members' levels; each
		// member's projection keeps only what its own level asked for.
		g.st.recProfile = g.st.recProfile || recProfile
		g.st.recSlots = g.st.recSlots || recSlots
	}
	return b, nil
}

// Groups returns how many distinct simulations the batch executes — the
// lane count minus the duplicates the grouping collapsed.
func (b *BatchRunner) Groups() int { return len(b.groups) }

// Run executes every lane over the shared trace.
func (b *BatchRunner) Run() ([]LaneResult, error) {
	return b.RunContext(context.Background())
}

// RunContext is Run under a context. Cancellation stops the running group
// between slots: every unfinished lane gets a *CanceledError and the
// context error is returned as the batch error. Per-lane simulation
// failures do not abort the batch — the failing group's lanes carry the
// error while the other groups complete.
//
// The returned slice and the *Results inside it alias the BatchRunner's
// internal buffers: they are valid until the next Run call.
func (b *BatchRunner) RunContext(ctx context.Context) ([]LaneResult, error) {
	var followerSlots uint64
	var batchErr error
	for gi := range b.groups {
		g := &b.groups[gi]
		start := time.Now()
		hits0, misses0 := g.st.memo.Stats()
		g.st.reset()
		_, err := g.st.run(ctx)
		if err != nil { // errors.As's target escapes: keep it off the success path
			var ce *CanceledError
			if errors.As(err, &ce) {
				batchErr = ce.Err
			}
		}
		followerSlots += uint64(len(g.members)-1) * uint64(g.st.res.Slots)

		hits1, misses1 := g.st.memo.Stats()
		dh, dm := hits1-hits0, misses1-misses0
		wall := time.Since(start) / time.Duration(len(g.members))
		for _, i := range g.members {
			ln := &b.lanes[i]
			if err != nil {
				b.results[i] = LaneResult{Err: err}
				continue
			}
			projectResult(ln.res, g.st.res, ln.recProfile, ln.recSlots)
			b.results[i] = LaneResult{Res: ln.res}
			if ln.metrics != nil {
				ln.metrics.RecordRun(ln.res.Slots, ln.res.Fuel, dh, dm, wall)
				dh, dm = 0, 0
			}
		}
	}
	b.Metrics.RecordBatch(len(b.lanes), followerSlots)
	return b.results, batchErr
}

// projectResult copies a run group's result into a lane's buffer,
// keeping only the history the lane's own record level asked for. The
// copy reuses dst's backing storage, so steady-state batch runs allocate
// nothing once the buffers have grown to size.
func projectResult(dst, src *Result, wantProfile, wantSlots bool) {
	m := dst.FuelByKind
	clear(m)
	events := dst.Events[:0]
	profile := dst.Profile[:0]
	charges := dst.Charges[:0]
	slotLog := dst.SlotLog[:0]

	*dst = *src
	dst.FuelByKind = m
	for k, v := range src.FuelByKind {
		m[k] = v
	}
	dst.Events = append(events, src.Events...)
	if wantProfile {
		dst.Profile = append(profile, src.Profile...)
		dst.Charges = append(charges, src.Charges...)
	} else {
		dst.Profile, dst.Charges = profile, charges
	}
	if wantSlots {
		dst.SlotLog = append(slotLog, src.SlotLog...)
	} else {
		dst.SlotLog = slotLog
	}
}

// sameTrace reports whether two traces drive identical walks. Pointer
// equality is the fast path; otherwise the slots are compared value for
// value (the name is cosmetic).
func sameTrace(a, b *workload.Trace) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || len(a.Slots) != len(b.Slots) {
		return false
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			return false
		}
	}
	return true
}
