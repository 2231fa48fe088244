// Package stats provides the small statistical toolkit used across the
// repository: moments, percentiles, and the load-imbalance
// metrics standard in the DLS literature.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// CoV returns the coefficient of variation σ/µ, the standard measure of a
// workload's irregularity in the DLS literature. It returns 0 when the mean
// is 0.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// MinMax returns the extrema of xs; it panics on empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics; it panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p <= 0 {
		m, _ := MinMax(xs)
		return m
	}
	if p >= 100 {
		_, m := MinMax(xs)
		return m
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LoadImbalance returns the classic max/mean − 1 metric over per-worker
// finishing loads: 0 means perfectly balanced. It returns 0 for degenerate
// inputs.
func LoadImbalance(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	m := Mean(loads)
	if m == 0 {
		return 0
	}
	_, max := MinMax(loads)
	return max/m - 1
}

// FormatSeconds renders a duration in seconds with an adaptive unit, for
// result tables.
func FormatSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2f ms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.2f µs", s*1e6)
	default:
		return fmt.Sprintf("%.0f ns", s*1e9)
	}
}
