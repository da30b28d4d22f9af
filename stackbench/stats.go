package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the ceil(p·n)-th smallest value. It returns 0 for an
// empty slice.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// median returns the median of values (the mean of the two middle
// values for an even count) without reordering the caller's slice.
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

// quartiles returns the three cut points that Python's
// statistics.quantiles(values, n=4) gives with its default exclusive
// method, so the repeat mode's spreads match an external check of the
// same numbers. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread summarises repeated measurements of one metric.
type spread struct {
	median, q1, q3 float64
	iqrFrac        float64 // (q3-q1)/median
	rangeFrac      float64 // (max-min)/median
}

func summarize(values []float64) spread {
	q1, _, q3 := quartiles(values)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	sp := spread{median: median(values), q1: q1, q3: q3}
	if sp.median != 0 {
		sp.iqrFrac = (q3 - q1) / math.Abs(sp.median)
		sp.rangeFrac = (hi - lo) / math.Abs(sp.median)
	}
	return sp
}
