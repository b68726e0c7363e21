// Package fcopt implements the paper's §3 optimization framework: choosing
// the FC system output currents (IF,i for the idle period, IF,a for the
// active period) of a single task slot so that fuel consumption is
// minimized subject to charge balance on the storage element, the FC
// load-following range, the storage capacity, and — optionally — the DPM
// sleep-transition overheads (§3.3.2).
//
// The fuel objective is
//
//	O(IF,i, IF,a) = Ifc(IF,i)·Ti + Ifc(IF,a)·Ta'
//
// with Ifc(IF) = VF·IF/(ζ·(α−β·IF)) (Eq 4-5), which is convex and
// increasing over the load-following range. Under the charge-balance
// equality (Eq 6/13) the Lagrange conditions (Eq 8-10) force
// IF,i = IF,a = I*, the demand-weighted average current (Eq 11). The
// constrained cases then follow the paper's §3.3.1 adjustment procedure.
package fcopt

import (
	"fmt"
	"math"

	"fcdpm/internal/fuelcell"
	"fcdpm/internal/numeric"
)

// Slot specifies one task slot for the optimizer. All currents are FC
// system-side amps; all times seconds; all charges amp-seconds.
type Slot struct {
	// Ti and IldI are the idle period length and load current (Isdb or
	// Islp depending on the DPM decision).
	Ti, IldI float64
	// Ta and IldA are the active period length and load current.
	Ta, IldA float64
	// Cini is the storage charge at the start of the slot; Cend is the
	// desired charge at the end (the paper targets Cini of the first slot
	// for stability, §3.3.1 "Cend ≠ Cini").
	Cini, Cend float64
	// Sleep indicates the DPM decision for this idle period (δ in
	// §3.3.2); when true and Overhead is set, wake-up overhead is added.
	Sleep bool
	// Overhead, when non-nil, enables the §3.3.2 transition-overhead
	// formulation.
	Overhead *Overhead
}

// Overhead carries the DPM sleep-transition costs of §3.3.2. The paper
// conservatively charges the *next* slot's power-down (τPD, IPD) to the
// current slot and extends the active period by δ·τWU + τPD at the
// active-period FC setting.
type Overhead struct {
	TauWU, IWU float64
	TauPD, IPD float64
}

// Setting is the optimizer's output for one slot.
type Setting struct {
	// IFi and IFa are the chosen FC system output currents for the idle
	// and (extended) active periods.
	IFi, IFa float64
	// TaEff is the effective active-period length Ta + δ·τWU + τPD the
	// IFa applies to (equals Ta when no overhead is modelled).
	TaEff float64
	// Fuel is the objective value: stack amp-seconds consumed over the
	// slot under this setting.
	Fuel float64
	// ClampedRange and ClampedCapacity record which constraints bound the
	// solution (paper: "set to the closest boundary value" / Eq 12).
	ClampedRange, ClampedCapacity bool
}

// Validate reports whether the slot is well-formed.
func (s Slot) Validate() error {
	switch {
	case s.Ti < 0 || s.Ta < 0:
		return fmt.Errorf("fcopt: negative period (Ti=%v, Ta=%v)", s.Ti, s.Ta)
	case s.Ti+s.Ta == 0:
		return fmt.Errorf("fcopt: empty slot")
	case s.IldI < 0 || s.IldA < 0:
		return fmt.Errorf("fcopt: negative load current")
	case s.Cini < 0 || s.Cend < 0:
		return fmt.Errorf("fcopt: negative storage charge")
	}
	if s.Overhead != nil {
		o := s.Overhead
		if o.TauWU < 0 || o.TauPD < 0 || o.IWU < 0 || o.IPD < 0 {
			return fmt.Errorf("fcopt: negative overhead parameter")
		}
	}
	return nil
}

// demand returns the effective active length Ta' and the total charge the
// load plus transitions will draw during it (paper §3.3.2).
func (s Slot) demand() (taEff, activeCharge float64) {
	taEff = s.Ta
	activeCharge = s.IldA * s.Ta
	if s.Overhead != nil {
		if s.Sleep {
			taEff += s.Overhead.TauWU
			activeCharge += s.Overhead.IWU * s.Overhead.TauWU
		}
		taEff += s.Overhead.TauPD
		activeCharge += s.Overhead.IPD * s.Overhead.TauPD
	}
	return taEff, activeCharge
}

// Optimize computes the fuel-optimal FC output setting for the slot against
// the given FC system and storage capacity cmax, following the paper's
// procedure:
//
//  1. Solve the unconstrained Lagrange system: IF,i = IF,a = I* (Eq 11,
//     generalized to Cend ≠ Cini and transition overheads).
//  2. Clamp I* to the load-following range (§3.3.1).
//  3. If the idle-period charging would overflow the storage (Eq 12),
//     lower IF,i to hit Cmax exactly and re-solve IF,a from the
//     charge-balance constraint (Eq 13), clamping again.
//  4. Symmetrically, if the idle-period setting would drain the storage
//     below empty, raise IF,i to keep the charge non-negative. (The paper
//     does not spell this case out; it is required for physical validity
//     when Cend > Cini cannot be met within range.)
//
// A zero-length idle or active period degenerates gracefully: the setting
// for the missing period is the range-clamped load current.
func Optimize(sys *fuelcell.System, cmax float64, s Slot) (Setting, error) {
	if err := s.Validate(); err != nil {
		return Setting{}, err
	}
	if cmax <= 0 {
		return Setting{}, fmt.Errorf("fcopt: non-positive storage capacity %v", cmax)
	}
	if s.Cini > cmax || s.Cend > cmax {
		return Setting{}, fmt.Errorf("fcopt: charge state beyond capacity (Cini=%v, Cend=%v, Cmax=%v)",
			s.Cini, s.Cend, cmax)
	}

	taEff, activeCharge := s.demand()
	set := Setting{TaEff: taEff}

	switch {
	case s.Ti == 0:
		// Pure active slot: meet demand directly.
		set.IFa = sys.Clamp(activeCharge/taEff + (s.Cend-s.Cini)/taEff)
		set.ClampedRange = !sys.InRange(activeCharge/taEff + (s.Cend-s.Cini)/taEff)
		set.IFi = set.IFa
	case taEff == 0:
		set.IFi = sys.Clamp(s.IldI + (s.Cend-s.Cini)/s.Ti)
		set.ClampedRange = !sys.InRange(s.IldI + (s.Cend-s.Cini)/s.Ti)
		set.IFa = set.IFi
	default:
		optimizeBoth(sys, cmax, s, taEff, activeCharge, &set)
	}

	set.Fuel = sys.Fuel(set.IFi, s.Ti) + sys.Fuel(set.IFa, taEff)
	return set, nil
}

// optimizeBoth handles the general two-period case.
func optimizeBoth(sys *fuelcell.System, cmax float64, s Slot, taEff, activeCharge float64, set *Setting) {
	// Unconstrained optimum (Eq 11 generalized): the total delivered
	// charge must equal total demand plus the desired storage delta.
	istar := (s.IldI*s.Ti + activeCharge + s.Cend - s.Cini) / (s.Ti + taEff)
	ifi := istar
	ifa := istar
	if !sys.InRange(istar) {
		ifi = sys.Clamp(istar)
		ifa = ifi
		set.ClampedRange = true
	}

	// Storage-capacity constraint during the idle period (Eq 12).
	peak := s.Cini + (ifi-s.IldI)*s.Ti
	if peak > cmax+1e-12 {
		// Lower IF,i so the idle period ends exactly full...
		ifi = s.IldI + (cmax-s.Cini)/s.Ti
		set.ClampedCapacity = true
		if !sys.InRange(ifi) {
			// ...unless even the bottom of the range overfills — the
			// paper routes the excess through the bleeder by-pass; the
			// simulator accounts the bleed.
			ifi = sys.Clamp(ifi)
			set.ClampedRange = true
		}
		ifa = rebalanceActive(sys, s, taEff, activeCharge, ifi, set)
	} else if peak < -1e-12 {
		// Symmetric guard: the storage cannot supply the idle deficit.
		ifi = s.IldI - s.Cini/s.Ti
		set.ClampedCapacity = true
		if !sys.InRange(ifi) {
			ifi = sys.Clamp(ifi)
			set.ClampedRange = true
		}
		ifa = rebalanceActive(sys, s, taEff, activeCharge, ifi, set)
	} else if set.ClampedRange {
		// Range clamp alone also breaks charge balance; re-solve the
		// active setting (Eq 13) and re-check capacity.
		ifa = rebalanceActive(sys, s, taEff, activeCharge, ifi, set)
		peak = s.Cini + (ifi-s.IldI)*s.Ti
		if peak > cmax+1e-12 {
			ifi = sys.Clamp(s.IldI + (cmax-s.Cini)/s.Ti)
			set.ClampedCapacity = true
			ifa = rebalanceActive(sys, s, taEff, activeCharge, ifi, set)
		}
	}
	set.IFi = ifi
	set.IFa = ifa
}

// rebalanceActive solves Eq 13 for IF,a given IF,i, then range-clamps.
func rebalanceActive(sys *fuelcell.System, s Slot, taEff, activeCharge, ifi float64, set *Setting) float64 {
	// Cini + (IF,i − Ild,i)·Ti = Cend + activeCharge − IF,a·Ta'
	ifa := (s.Cend + activeCharge - s.Cini - (ifi-s.IldI)*s.Ti) / taEff
	if !sys.InRange(ifa) {
		ifa = sys.Clamp(ifa)
		set.ClampedRange = true
	}
	return ifa
}

// Objective evaluates the §3.3 fuel objective for arbitrary currents — used
// by tests and the numeric cross-check.
func Objective(sys *fuelcell.System, s Slot, ifi, ifa float64) float64 {
	taEff, _ := s.demand()
	return sys.Fuel(ifi, s.Ti) + sys.Fuel(ifa, taEff)
}

// NumericOptimize cross-checks Optimize by direct golden-section search
// over IF,i with IF,a eliminated through the charge-balance constraint and
// both currents clamped to range. It ignores the storage-capacity
// constraint (supply cmax = +Inf situations) and exists to validate the
// closed form; production code should call Optimize. It is the reference
// TestAgainstNumericOptimizer and TestOverheadAgainstNumericOptimizer
// check Optimize against, as docs/THEORY.md describes.
func NumericOptimize(sys *fuelcell.System, s Slot) (ifi, ifa, fuel float64) {
	taEff, activeCharge := s.demand()
	if s.Ti == 0 || taEff == 0 {
		set, err := Optimize(sys, math.MaxFloat64/4, s)
		if err != nil {
			return 0, 0, math.NaN()
		}
		return set.IFi, set.IFa, set.Fuel
	}
	eval := func(x float64) float64 {
		aRaw := (s.Cend + activeCharge - s.Cini - (x-s.IldI)*s.Ti) / taEff
		a := sys.Clamp(aRaw)
		// Penalize charge-balance violations so the search cannot "win"
		// by under-delivering Cend; the penalty is convex in x, keeping
		// the objective unimodal for golden section.
		return sys.Fuel(x, s.Ti) + sys.Fuel(a, taEff) + 1e6*math.Abs(aRaw-a)
	}
	ifi = numeric.GoldenMin(eval, sys.MinOutput, sys.MaxOutput, 1e-12)
	ifa = sys.Clamp((s.Cend + activeCharge - s.Cini - (ifi-s.IldI)*s.Ti) / taEff)
	return ifi, ifa, eval(ifi)
}
