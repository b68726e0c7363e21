package exp

import (
	"context"
	"testing"
)

// TestSweepsMatchSequentialPoints pins each ablation sweep's fan-out to
// a plain sequential loop over the same point scenarios: same rows, in
// input order, bit for bit.
func TestSweepsMatchSequentialPoints(t *testing.T) {
	ctx := context.Background()
	const seed = 1
	cases := []struct {
		name  string
		xs    []float64
		sweep func(context.Context, uint64, []float64) ([]SweepPoint, error)
		point func(uint64, float64) (*Scenario, error)
	}{
		{"capacity", []float64{2, 6, 24}, CapacitySweepContext, capacityScenario},
		{"beta", []float64{0, 0.13, 0.3}, BetaSweepContext, betaScenario},
		{"rho", []float64{0, 0.5, 1}, RhoSweepContext, rhoScenario},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.sweep(ctx, seed, c.xs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.xs) {
				t.Fatalf("%d points, want %d", len(got), len(c.xs))
			}
			for i, x := range c.xs {
				sc, err := c.point(seed, x)
				if err != nil {
					t.Fatal(err)
				}
				cmp, err := sc.CompareContext(ctx, sc.Policies())
				if err != nil {
					t.Fatal(err)
				}
				want := SweepPoint{X: x, SavingVsASAP: cmp.SavingVsASAP,
					FCNormalized: cmp.Row("FC-DPM").Normalized}
				if got[i] != want {
					t.Fatalf("point %d: %+v, want %+v", i, got[i], want)
				}
			}
		})
	}
}
