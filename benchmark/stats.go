package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile (0 ≤ q ≤ 1) of xs; 0 for
// an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrShare is the distance between the first and third quartile as a share
// of the median: the run-to-run spread the bounds are checked against.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

func minMax(xs []float64) (lo, hi float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0
	}
	return s[0], s[len(s)-1]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
