package main

import (
	"math"
	"sort"
)

// percentile reads the q-quantile (0 ≤ q ≤ 1) of an ascending slice
// with the nearest-rank rule: the smallest value with at least q of the
// samples at or below it. An empty slice reads 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median is the middle value (mean of the two middle values for an even
// count) of an unsorted slice, which it leaves untouched.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(values []float64) float64 {
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total
}

// mean of a slice; 0 when empty.
func mean(values []float64) float64 { return ratio(sum(values), float64(len(values))) }

// ratio is num/den, 0 when den is 0 — per-layer ratios read 0 on the
// workloads whose layer does no work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
