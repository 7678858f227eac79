package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middles for an
// even count), as Python's statistics.median does; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minOf returns the smallest of xs; NaN when empty.
func minOf(xs []float64) float64 {
	m := math.NaN()
	for i, x := range xs {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// quartiles returns the first and third quartiles by the same exclusive
// method as Python's statistics.quantiles(xs, n=4), so spreads printed
// here match a reader's own check of the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is zero (a layer the workload never uses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
