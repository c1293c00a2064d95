package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between the closest ranks (the numpy/R type-7 definition). xs need not be
// sorted; it is not modified. An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// total is the sum of xs.
func total(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// summary is a timing sample reduced to the figures a record carries: the
// sample count, the quartiles and the 90th percentile. The count travels
// with the percentiles so a reader can judge the tail (ten samples beyond
// p90 need n ≥ 100).
type summary struct {
	N                  int
	P25, P50, P75, P90 float64
}

// summarize reduces xs.
func summarize(xs []float64) summary {
	return summary{
		N:   len(xs),
		P25: quantile(xs, 0.25),
		P50: quantile(xs, 0.5),
		P75: quantile(xs, 0.75),
		P90: quantile(xs, 0.9),
	}
}

// perStep divides a counter delta by a step count, returning 0 for an empty
// window rather than NaN so a record never carries a non-number.
func perStep(delta float64, steps int) float64 {
	if steps <= 0 {
		return 0
	}
	return delta / float64(steps)
}

// ratio is a/b with 0 for b == 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterDelta returns after[name] − before[name] for counter snapshots.
func counterDelta(before, after map[string]int64, name string) int64 {
	return after[name] - before[name]
}

// sypd converts simulated seconds advanced in wall seconds into simulated
// years per wall-clock day.
func sypd(simSeconds, wallSeconds float64) float64 {
	if wallSeconds <= 0 {
		return 0
	}
	return (simSeconds / wallSeconds) * 86400 / (365 * 86400)
}

// validateMetrics checks a metric set against the benchmark specification:
// exactly the names the spec lists for the run kind, each value finite.
func validateMetrics(want []specMetric, got map[string]float64) error {
	names := make(map[string]bool, len(want))
	for _, m := range want {
		names[m.Name] = true
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %q missing", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", m.Name, v)
		}
	}
	for name := range got {
		if !names[name] {
			return fmt.Errorf("metric %q is not in the specification", name)
		}
	}
	return nil
}
