package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); NaN when xs is empty.
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

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, including its extrapolation for tiny samples). It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the quartile spread (q3-q1)/median: the run table reports it
// over a run's repetitions, and BENCHMARK.json's bounds apply it across
// runs.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailPercentile returns the highest percentile among want (in
// descending preference) that has at least minBeyond samples above it in
// a set of n, or 0 when none qualifies. A p-th percentile of n samples
// has n·(1-p/100) samples beyond it.
func tailPercentile(n int, want []float64, minBeyond int) float64 {
	for _, p := range want {
		if float64(n)*(100-p)/100 >= float64(minBeyond) {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (numpy's default); NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
