package main

import (
	"math"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, have float64
	}{
		{40, 0.75, 0.75},  // exactly ten samples beyond p75
		{39, 0.75, 0.50},  // one short: fall back to the median
		{100, 0.95, 0.90}, // five beyond p95, ten beyond p90
		{199, 0.95, 0.90},
		{200, 0.95, 0.95},
		{5000, 0.95, 0.95}, // never above what was asked for
		{5, 0.95, 0.50},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.have {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.have)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.75: 4, 1: 5, 0.125: 1.5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("an empty sample must read 0")
	}
}

func TestBounds(t *testing.T) {
	lower := metricDef{Name: "solve_s_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		def        metricDef
		base, cand float64
		worse      float64
		regressed  bool
	}{
		{lower, 1.0, 1.05, 0.05, false},
		{lower, 1.0, 1.11, 0.11, true},
		{lower, 1.0, 0.50, -0.50, false}, // an improvement is never a regression
		{higher, 100, 95, 0.05, false},
		{higher, 100, 89, 0.11, true},
		{higher, 100, 150, -0.50, false},
		{failedFrac, 0, 0, 0, false},
		{failedFrac, 0, 0.001, 0, true}, // absolute rule: any increase counts
		{failedFrac, 0.01, 0.005, -0.5, false},
	} {
		if got := worsening(c.def, c.base, c.cand); math.Abs(got-c.worse) > 1e-9 {
			t.Errorf("%s: worsening(%v, %v) = %v, want %v", c.def.Name, c.base, c.cand, got, c.worse)
		}
		if got := regressed(c.def, c.base, c.cand); got != c.regressed {
			t.Errorf("%s: regressed(%v, %v) = %v, want %v", c.def.Name, c.base, c.cand, got, c.regressed)
		}
	}
}

func TestCompareSets(t *testing.T) {
	run := func(p50 float64, failed int) runResult {
		return runResult{Workload: "jacobi-large", driverResult: driverResult{Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"solve_s_p50": {Value: p50, Unit: "s"}}}}
	}
	base := resultSet{Runs: []runResult{run(1.0, 0)}}
	if _, bad := compareSets(base, resultSet{Runs: []runResult{run(1.05, 0)}}, false); bad != 0 {
		t.Errorf("5%% slower is within the bound, got %d regressions", bad)
	}
	if _, bad := compareSets(base, resultSet{Runs: []runResult{run(1.5, 1)}}, false); bad != 2 {
		t.Errorf("50%% slower with a failure: want solve_s_p50 and failed_frac flagged, got %d", bad)
	}
	// A/A is symmetric: a set that is much faster is as suspect as a slower one.
	if _, bad := compareSets(base, resultSet{Runs: []runResult{run(0.6, 0)}}, false); bad != 0 {
		t.Errorf("faster is not a regression, got %d", bad)
	}
	if _, bad := compareSets(base, resultSet{Runs: []runResult{run(0.6, 0)}}, true); bad != 1 {
		t.Errorf("A/A must flag a 67%% gap in either direction, got %d", bad)
	}
}
