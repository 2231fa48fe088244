package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is not
// modified. An empty sample yields 0.
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

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the sample never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latHist is a fixed-size log-linear histogram of latencies in ns: exact
// below 256 ns, then 128 buckets per power of two (each under 0.8% wide),
// up to 2^40 ns. Its size does not depend on how many latencies it holds.
type latHist struct {
	counts [histBuckets]uint32
	total  uint32
}

const (
	histSub     = 128
	histMaxBits = 40
	histBuckets = 2*histSub + (histMaxBits-8)*histSub
)

// histIndex is the bucket of v ns.
func histIndex(v uint64) int {
	v = min(v, 1<<histMaxBits-1)
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - 8 // v >> e is in [128, 256)
	return 2*histSub + (e-1)*histSub + int(v>>e) - histSub
}

// histBounds is bucket i's lower bound and width in ns.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	e := (i-2*histSub)/histSub + 1
	m := (i-2*histSub)%histSub + histSub
	return float64(uint64(m) << e), float64(uint64(1) << e)
}

func (h *latHist) add(d time.Duration) {
	h.counts[histIndex(uint64(max(d, 0)))]++
	h.total++
}

func (h *latHist) merge(o *latHist) {
	for i, n := range o.counts {
		h.counts[i] += n
	}
	h.total += o.total
}

// quantileMS returns the q-quantile in ms, placing a bucket's latencies
// evenly across its width; like quantile, it interpolates between ranks.
// An empty histogram yields 0.
func (h *latHist) quantileMS(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total-1)
	cum := 0.0
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		if rank < cum+float64(n) {
			lo, width := histBounds(i)
			return (lo + width*(rank-cum+0.5)/float64(n)) / 1e6
		}
		cum += float64(n)
	}
	return 0 // unreachable: rank < total
}
