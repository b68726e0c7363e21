// Package multistack models a K-stack hybrid power source: K independent
// fuel-cell systems feeding one regulated bus behind a shared storage
// element, the configuration datacenter-scale deployments use (a rack of
// stacks sized for surge capacity rather than one monolithic stack).
//
// A Rack aggregates its stacks under a power-allocation policy into a
// single fuelcell.System — the seam the simulator, the policies, and the
// fuel-map memo already consume — by pre-solving the rack's effective
// efficiency curve on a dense grid at construction, the same idiom
// fuelcell.ChainEfficiency uses. The aggregate is immutable and
// allocation-free at query time, so racks batch, memoize, and share
// across lanes exactly like single-stack systems.
package multistack

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fcdpm/internal/fuelcell"
)

// Stack is one fuel-cell stack in a rack: its electrical description
// plus the health state allocation policies react to.
type Stack struct {
	// Sys is the stack's own system description. All stacks of a rack
	// must share the bus voltage VF and Gibbs coefficient Zeta.
	Sys *fuelcell.System
	// Degrade is the stack's fractional efficiency loss in [0, 1),
	// mirroring fault.EfficiencyDegrade: every amp the stack delivers
	// burns fuel scaled by 1/(1-Degrade). Zero is a healthy stack.
	Degrade float64
	// Offline removes the stack from allocation entirely (dropout /
	// maintenance); it contributes neither capacity nor fuel.
	Offline bool
}

// FuelRate returns the stack's fuel-rate current (A of stack current,
// proportional to mol H2/s) when delivering output x, inflated by the
// stack's efficiency degradation.
func (s Stack) FuelRate(x float64) float64 {
	if s.Offline || x <= 0 {
		return 0
	}
	return s.Sys.StackCurrent(x) / (1 - s.Degrade)
}

// maxOut returns the stack's deliverable ceiling, zero when offline.
func (s Stack) maxOut() float64 {
	if s.Offline {
		return 0
	}
	return s.Sys.MaxOutput
}

// Allocator splits a total rack demand across the stacks. Allocations
// treat each stack as gateable: a stack may sit at zero output while its
// siblings carry the load (the rack controller modulates stacks
// individually), so the per-stack constraint is 0 <= x_k <= MaxOutput_k
// with offline stacks pinned at zero.
type Allocator interface {
	// Name is the human-readable policy name for reports.
	Name() string
	// Allocate writes the per-stack outputs for total demand iF into
	// out (len(stacks)). The demand is feasible: 0 <= iF <= sum of
	// online stack ceilings.
	Allocate(stacks []Stack, iF float64, out []float64)
}

// EqualSplit divides the demand evenly across online stacks, spilling
// the share a saturated stack cannot take onto the rest — the naive
// baseline a rack PDU implements with no efficiency feedback.
type EqualSplit struct{}

// Name implements Allocator.
func (EqualSplit) Name() string { return "equal-split" }

// Allocate implements Allocator.
func (EqualSplit) Allocate(stacks []Stack, iF float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	remaining := iF
	open := 0
	for _, s := range stacks {
		if s.maxOut() > 0 {
			open++
		}
	}
	// Saturation spill: each pass hands every open stack an equal share;
	// stacks that hit their ceiling close and the residual re-splits.
	for remaining > 1e-15 && open > 0 {
		share := remaining / float64(open)
		progressed := false
		for k := range stacks {
			room := stacks[k].maxOut() - out[k]
			if room <= 0 {
				continue
			}
			take := math.Min(share, room)
			out[k] += take
			remaining -= take
			if take > 0 {
				progressed = true
			}
			if out[k] >= stacks[k].maxOut()-1e-15 {
				open--
			}
		}
		if !progressed {
			break
		}
	}
}

// WaterFill allocates by marginal-cost equalization on the convex
// per-stack fuel curves: the rack's fuel rate sum(f_k(x_k)) is minimized
// subject to sum(x_k) = iF and 0 <= x_k <= max_k by finding the water
// level lambda at which every running stack's marginal fuel cost
// f_k'(x_k) equals lambda (stacks whose marginal cost at zero already
// exceeds lambda stay off; stacks saturated below lambda run at their
// ceiling) — the classic KKT structure of water-filling, valid because
// each f_k is convex (TestFuelMapConvex checks the paper's map,
// TestRackAggregateRange the rack aggregate's).
type WaterFill struct{}

// Name implements Allocator.
func (WaterFill) Name() string { return "water-filling" }

// marginal returns df_k/dx at x via a central difference, one-sided at
// the domain edges.
func marginal(s Stack, x float64) float64 {
	const h = 1e-4
	lo, hi := x-h, x+h
	if lo < 0 {
		lo = 0
	}
	if m := s.maxOut(); hi > m {
		hi = m
	}
	if hi <= lo {
		return math.Inf(1)
	}
	return (s.FuelRate(hi) - s.FuelRate(lo)) / (hi - lo)
}

// levelOutput returns the largest x in [0, max_k] with f_k'(x) <= lambda
// (monotone in lambda because f_k' is non-decreasing).
func levelOutput(s Stack, lambda float64) float64 {
	m := s.maxOut()
	if m <= 0 || marginal(s, 0) > lambda {
		return 0
	}
	if marginal(s, m) <= lambda {
		return m
	}
	lo, hi := 0.0, m
	for i := 0; i < 48; i++ {
		mid := 0.5 * (lo + hi)
		if marginal(s, mid) <= lambda {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Allocate implements Allocator.
func (WaterFill) Allocate(stacks []Stack, iF float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	if iF <= 0 {
		return
	}
	// Bracket the water level: at lambda = 0 nothing runs; at the
	// largest saturated marginal cost everything runs flat out.
	hi := 0.0
	for _, s := range stacks {
		if m := s.maxOut(); m > 0 {
			if c := marginal(s, m); c > hi {
				hi = c
			}
		}
	}
	hi += 1
	lo := 0.0
	total := func(lambda float64) float64 {
		var t float64
		for _, s := range stacks {
			t += levelOutput(s, lambda)
		}
		return t
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if total(mid) < iF {
			lo = mid
		} else {
			hi = mid
		}
	}
	for k, s := range stacks {
		out[k] = levelOutput(s, hi)
	}
	// Close the bisection residual on stacks with headroom so the
	// allocation sums to the demand exactly (the residual is far below
	// any physical scale, but the sim's charge balance is exact).
	var sum float64
	for _, x := range out {
		sum += x
	}
	diff := iF - sum
	for k := range out {
		if diff == 0 {
			break
		}
		room := stacks[k].maxOut() - out[k]
		if diff > 0 && room > 0 {
			take := math.Min(diff, room)
			out[k] += take
			diff -= take
		} else if diff < 0 && out[k] > 0 {
			give := math.Min(-diff, out[k])
			out[k] -= give
			diff += give
		}
	}
}

// HealthRotation concentrates load on the healthiest stacks: stacks are
// ordered by ascending efficiency degradation (ties keep rack order) and
// filled greedily to their ceilings, so degraded stacks only run when
// the healthy prefix cannot cover the demand — the rotation a rack
// operator runs to shed wear onto stacks already scheduled for
// replacement.
type HealthRotation struct{}

// Name implements Allocator.
func (HealthRotation) Name() string { return "health-rotation" }

// Allocate implements Allocator.
func (HealthRotation) Allocate(stacks []Stack, iF float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	order := make([]int, len(stacks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return stacks[order[a]].Degrade < stacks[order[b]].Degrade
	})
	remaining := iF
	for _, k := range order {
		if remaining <= 0 {
			break
		}
		take := math.Min(remaining, stacks[k].maxOut())
		out[k] = take
		remaining -= take
	}
}

// ParseAllocator maps a selector string to an allocation policy.
func ParseAllocator(name string) (Allocator, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "equal", "equal-split", "equalsplit":
		return EqualSplit{}, nil
	case "waterfill", "water-filling", "water-fill":
		return WaterFill{}, nil
	case "rotation", "health-rotation", "health":
		return HealthRotation{}, nil
	default:
		return nil, fmt.Errorf("multistack: unknown allocator %q", name)
	}
}

// Allocators returns the three built-in allocation policies in
// comparison order.
func Allocators() []Allocator {
	return []Allocator{EqualSplit{}, WaterFill{}, HealthRotation{}}
}
