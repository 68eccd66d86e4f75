package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs is not modified. It returns 0
// for an empty slice.
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

// fastQuartile is the noise-resistant interval statistic: the 25th
// percentile of per-unit interval times. Host contention on a shared VM
// only ever slows an interval down, so the fast quartile tracks the
// unthrottled speed while up to three quarters of the intervals may fall
// in slow phases. Callers turn it into a rate with its reciprocal.
func fastQuartile(perUnitSeconds []float64) float64 { return quantile(perUnitSeconds, 0.25) }

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailLatency reports the highest ladder percentile that has at least
// ten samples beyond it, its value and the number of samples beyond it.
// With fewer than forty samples no percentile qualifies and the maximum
// is reported as percentile 100 with zero samples beyond it.
func tailLatency(lat []float64) (pct, value float64, beyond int) {
	n := len(lat)
	for _, p := range tailLadder {
		b := n - int(math.Ceil(p/100*float64(n)))
		if b >= 10 {
			return p, quantile(lat, p/100), b
		}
	}
	return 100, quantile(lat, 1), 0
}
