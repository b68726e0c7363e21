package exp

import (
	"context"
	"fmt"
	"math"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/multistack"
	"fcdpm/internal/policy"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// MultiStackConfig parameterizes the multi-stack allocation study.
// Zero-valued fields take the defaults below.
type MultiStackConfig struct {
	// Ks lists the rack sizes to compare (default {2, 4}).
	Ks []int
	// Intensities lists the racksurge surge multipliers (default
	// {1.5, 2, 2.5}).
	Intensities []float64
	// DegradedMix is the per-stack efficiency-degradation cycle (default
	// {0, 0.3}: every second stack 30 % degraded — the heterogeneous
	// rack where allocation policy matters).
	DegradedMix []float64
	// Seed and Duration override the racksurge generator defaults when
	// non-zero. Duration must be finite and non-negative.
	Seed     uint64
	Duration float64
}

// ConfigError reports a study configuration field outside its domain.
type ConfigError struct {
	Field string // the Go field name, e.g. "Duration"
	Value float64
	Want  string // the accepted domain
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("exp: %s = %v, want %s", e.Field, e.Value, e.Want)
}

func (c MultiStackConfig) validate() error {
	if !(c.Duration >= 0) || math.IsInf(c.Duration, 1) {
		return &ConfigError{Field: "Duration", Value: c.Duration, Want: "finite and >= 0 (0 = generator default)"}
	}
	return nil
}

func (c MultiStackConfig) withDefaults() MultiStackConfig {
	if len(c.Ks) == 0 {
		c.Ks = []int{2, 4}
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{1.5, 2, 2.5}
	}
	if c.DegradedMix == nil {
		c.DegradedMix = []float64{0, 0.3}
	}
	return c
}

// MultiStackRow is one (allocation policy, rack size, surge intensity)
// cell of the study.
type MultiStackRow struct {
	Alloc     string  // allocation policy name
	K         int     // rack size
	Intensity float64 // surge multiplier
	Fuel      float64 // fuel-rate integral, A-s
	Deficit   float64 // unmet load charge, A-s (brownout exposure)
	Bled      float64 // charge dissipated through the bleeder, A-s
	// FuelVsEqual is this row's fuel normalized to the equal-split row
	// of the same (K, intensity) cell; 1 for equal-split itself.
	FuelVsEqual float64
}

// MultiStackStudy compares the rack allocation policies (equal-split,
// water-filling, health-rotation) across rack sizes and surge
// intensities on the datacenter racksurge workload. Each rack runs the
// ASAP policy — the source decision then depends only on charge and
// load, never on the fuel map, so every allocator sees the identical
// output trajectory and the fuel column isolates pure allocation
// efficiency: water-filling's pointwise-optimal split strictly
// dominates equal-split whenever the degradation mix makes the rack
// heterogeneous.
func MultiStackStudy(cfg MultiStackConfig) ([]MultiStackRow, error) {
	return MultiStackStudyContext(context.Background(), cfg)
}

// MultiStackStudyContext is MultiStackStudy under a context. An invalid
// cfg yields a *ConfigError.
func MultiStackStudyContext(ctx context.Context, cfg MultiStackConfig) ([]MultiStackRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	allocs := multistack.Allocators()
	var rows []MultiStackRow
	for _, intensity := range cfg.Intensities {
		wcfg := workload.DefaultRackSurgeConfig()
		if cfg.Seed != 0 {
			wcfg.Seed = cfg.Seed
		}
		if cfg.Duration > 0 {
			wcfg.Duration = cfg.Duration
		}
		wcfg.Intensity = intensity
		trace, err := workload.RackSurge(wcfg)
		if err != nil {
			return nil, err
		}
		var results []*sim.Result
		for _, k := range cfg.Ks {
			for _, alloc := range allocs {
				rack, err := multistack.Uniform(fuelcell.PaperSystem(), k, alloc, cfg.DegradedMix)
				if err != nil {
					return nil, fmt.Errorf("exp: multistack K=%d: %w", k, err)
				}
				sys := rack.System()
				// Storage scales with the rack: the paper's 6 A-s supercap
				// per stack, started at the per-stack initial charge.
				store, err := storage.NewSuperCap(6*float64(k), float64(k))
				if err != nil {
					return nil, err
				}
				res, err := sim.RunContext(ctx, sim.Config{
					Sys:    sys,
					Dev:    device.Synthetic(),
					Store:  store,
					Trace:  trace,
					Policy: policy.NewASAP(sys),
				})
				if err != nil {
					return nil, fmt.Errorf("exp: multistack K=%d %s: %w", k, alloc.Name(), err)
				}
				results = append(results, res)
			}
		}
		for ki, k := range cfg.Ks {
			base := ki * len(allocs)
			equalFuel := results[base].Fuel
			for ai, alloc := range allocs {
				res := results[base+ai]
				rows = append(rows, MultiStackRow{
					Alloc:       alloc.Name(),
					K:           k,
					Intensity:   intensity,
					Fuel:        res.Fuel,
					Deficit:     res.Deficit,
					Bled:        res.Bled,
					FuelVsEqual: res.Fuel / equalFuel,
				})
			}
		}
	}
	return rows, nil
}
