package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, the percentile is one or two outliers, not a tail.
const minBeyond = 10

// minSamples is the fewest samples whose p90 has minBeyond beyond it.
const minSamples = 100

// percentile returns the p-quantile (0 < p < 1) of xs by the
// nearest-rank rule, refusing when fewer than minBeyond samples lie
// strictly beyond its rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle sample (mean of the middle two for even counts);
// it has no tail requirement.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// durationsIn converts durations to float samples in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// tail returns the p50 and p90 of samples in milliseconds, or an error
// when the count cannot support p90.
func tail(samples []time.Duration) (p50, p90 float64, err error) {
	ms := durationsIn(samples, time.Millisecond)
	if p90, err = percentile(ms, 0.90); err != nil {
		return 0, 0, err
	}
	p50, _ = percentile(ms, 0.50)
	return p50, p90, nil
}

// setLatency reports the p50 of samples as the end-to-end metric
// name_p50_ms, and their p90 and count as details. The p90 is not an
// end-to-end metric: on a shared host it follows the hypervisor's steal
// time from run to run by more than any bound a regression gate can use.
func setLatency(o *outcome, name string, samples []time.Duration) {
	p50, p90, err := tail(samples)
	if err != nil {
		o.fail("%s: %v", name, err)
		return
	}
	o.metrics.set(name+"_p50_ms", p50, "ms")
	o.details[name+"_p90_ms"] = p90
	o.details[name+".samples"] = len(samples)
}
