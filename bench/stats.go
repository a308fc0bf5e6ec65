package main

import (
	"math"
	"sort"
)

// median returns the middle of vals (mean of the two middles for an even
// count); 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sorted(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals the way
// Python's statistics.quantiles(vals, n=4) does (exclusive method) — the
// rule the acceptance driver applies to run-to-run spread, so the
// benchmark's own -aa check and the driver agree. It needs two values;
// with fewer both quartiles are the single value (or 0).
func quartiles(vals []float64) (q1, q3 float64) {
	s := sorted(vals)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
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
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// same-code run-to-run variation a bound has to clear.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sorted(vals)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// percentileAllowed is the reporting rule: a percentile is printed only
// when at least ten samples lie beyond it, so a p90 needs n >= 100 and a
// p99 n >= 1000. Below that the tail is a guess and is omitted.
func percentileAllowed(p float64, n int) bool {
	// Exact integer arithmetic in per-mille: 99.9 is the finest tail used.
	beyond := n * (1000 - int(math.Round(p*10)))
	return beyond >= 10*1000
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
