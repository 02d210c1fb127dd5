package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs, 0 < q < 1, and
// whether at least minBeyond samples lie beyond it. A percentile with fewer
// samples beyond it is not reported.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], true
}

// medianOf returns, for every key, the median of its values across maps.
func medianOf(ms []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}
