package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quotient is a/b, or 0 when a run was too short to give b a value.
func quotient(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianMs is the median of ds in milliseconds.
func medianMs(ds []time.Duration) float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	return median(ms)
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice: the smallest element with at least q·n elements at or
// below it. p99 of 1000 samples is element 990, leaving ten beyond it.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(asc)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(asc) {
		rank = len(asc) - 1
	}
	return asc[rank]
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// -compare judges spread the way the driver that gates this benchmark
// does. Needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median — the
// repeatability figure the bounds in BENCHMARK.json are judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// durationsToFloat converts nanosecond samples to a float slice scaled by
// 1/div (1e3 for µs, 1e6 for ms), ascending.
func durationsToFloat(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	sort.Float64s(out)
	return out
}
