package main

import "sort"

// tailBeyond is how many samples must lie above a percentile before the
// benchmark reports it as a tail.
const tailBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample: the smallest value with at least p% of the
// sample at or below it. An empty sample gives 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(p * float64(n) / 100)
	if float64(rank) < p*float64(n)/100 {
		rank++
	}
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}

// tailPercentile returns the highest whole percentile below 100 that
// leaves at least tailBeyond samples above its nearest rank in a sample
// of n, and false when n is too small for any.
func tailPercentile(n int) (int, bool) {
	for p := 99; p >= 1; p-- {
		if n-(p*n+99)/100 >= tailBeyond {
			return p, true
		}
	}
	return 0, false
}

// sorted returns an ascending copy of values.
func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the middle of values, the mean of the two middle ones
// for an even count, as Python's statistics.median does.
func median(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of values by the
// method of Python's statistics.quantiles(values, n=4) (the default,
// exclusive method, which extrapolates for two values), so that spreads
// computed here match the ones an outside reader computes from the same
// record. Fewer than two values give the single value (or 0) for both.
func quartiles(values []float64) (q1, q3 float64) {
	s := sorted(values)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread returns the interquartile range of values as a share of their
// median, 0 when the median is 0.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / m
}
