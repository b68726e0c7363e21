package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// msList converts durations to float milliseconds.
func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// medianOfQuantiles returns the median, over the non-empty groups, of
// each group's q-quantile. Latencies are reported this way, per
// sub-window, so a burst of noise on a shared machine moves one group,
// not the result.
func medianOfQuantiles(groups [][]float64, q float64) float64 {
	var qs []float64
	for _, g := range groups {
		if len(g) > 0 {
			qs = append(qs, quantile(g, q))
		}
	}
	return median(qs)
}
