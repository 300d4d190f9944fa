package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {95, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{10, 0, false},
		{11, 9, true},
		{20, 50, true},
		{80, 87, true},
		{200, 95, true},
		{1000, 99, true},
		{100000, 99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %t; want %d, %t", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok {
			rank := (got*tc.n + 99) / 100
			if tc.n-rank < tailBeyond {
				t.Errorf("tailPercentile(%d) = p%d leaves %d samples beyond it", tc.n, got, tc.n-rank)
			}
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are what Python's statistics.quantiles(v, n=4)
	// prints for the same values.
	for _, tc := range []struct {
		values         []float64
		median, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 3, 1.5, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
	} {
		if got := median(tc.values); got != tc.median {
			t.Errorf("median(%v) = %g, want %g", tc.values, got, tc.median)
		}
		q1, q3 := quartiles(tc.values)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.values, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..4) = %g, want 1 (IQR 2.5 over median 2.5)", got)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread with a zero median = %g, want 0", got)
	}
}
