package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p90 needs at least 100 samples, a p99 at least 1000.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, and an error when fewer than minTail samples lie
// strictly beyond the rank it reports. The median (q = 0.5) is exempt
// from the tail rule but still needs one sample.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile: no samples")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; q > 0.5 && beyond < minTail {
		return s[rank], fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d",
			q*100, n, beyond, minTail)
	}
	return s[rank], nil
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds the samples.
func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}
