package workload

import (
	"fmt"

	"fcdpm/internal/numeric"
)

// Repeat returns the trace tiled n times. n <= 0 yields an empty trace.
func (t *Trace) Repeat(n int) *Trace {
	out := &Trace{Name: fmt.Sprintf("%s x%d", t.Name, n)}
	for k := 0; k < n; k++ {
		out.Slots = append(out.Slots, t.Slots...)
	}
	return out
}

// ScaleCurrent returns a copy with all active currents multiplied by
// factor. It panics on a negative factor.
func (t *Trace) ScaleCurrent(factor float64) *Trace {
	if factor < 0 {
		panic(fmt.Sprintf("workload: negative current scale %v", factor))
	}
	out := &Trace{Name: fmt.Sprintf("%s (current x%g)", t.Name, factor)}
	out.Slots = make([]Slot, len(t.Slots))
	for k, s := range t.Slots {
		out.Slots[k] = Slot{Idle: s.Idle, Active: s.Active, ActiveCurrent: s.ActiveCurrent * factor}
	}
	return out
}

// PerturbIdle returns a copy whose idle periods are multiplied by
// independent uniform factors in [1-frac, 1+frac] — a robustness knob for
// predictor studies. frac must lie in [0, 1).
func (t *Trace) PerturbIdle(seed uint64, frac float64) (*Trace, error) {
	if frac < 0 || frac >= 1 {
		return nil, fmt.Errorf("workload: perturbation fraction %v outside [0, 1)", frac)
	}
	rng := numeric.NewRNG(seed)
	out := &Trace{Name: fmt.Sprintf("%s (idle ±%.0f%%)", t.Name, frac*100)}
	out.Slots = make([]Slot, len(t.Slots))
	for k, s := range t.Slots {
		f := 1 + frac*(2*rng.Float64()-1)
		out.Slots[k] = Slot{Idle: s.Idle * f, Active: s.Active, ActiveCurrent: s.ActiveCurrent}
	}
	return out, nil
}
