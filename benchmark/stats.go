package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); xs need not be sorted. It
// returns 0 for an empty sample so an absent layer reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentileLadder are the percentiles the benchmark reports, ascending.
var percentileLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a tail read from fewer is one or two outliers, not a percentile.
const minBeyond = 10

// supportedPercentile returns the highest ladder percentile no greater than
// want that has at least minBeyond of n samples beyond it, falling back to
// the median when even p75 is unsupported. At 40 samples that is p75, at
// 200 p95.
func supportedPercentile(n int, want float64) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		// Round before comparing: 0.25*40 must count as ten samples, and
		// 1-0.95 is not exactly 0.05.
		if p <= want && math.Round(float64(n)*(1-p)*1e6)/1e6 >= minBeyond {
			best = p
		}
	}
	return best
}

// worsening returns how much worse cand is than base as a share of base,
// positive when worse, whatever the metric's direction.
func worsening(def metricDef, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// regressed applies a metric's bound. failed_frac has the absolute rule:
// any increase over the base is a regression.
func regressed(def metricDef, base, cand float64) bool {
	if def.Name == failedFrac.Name {
		return cand > base
	}
	return worsening(def, base, cand) > def.Bound
}
