package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail
// percentile.
const minTail = 10

// tailQuantile returns the highest quantile not above want that has at
// least minTail samples beyond it among n samples, using the
// nearest-rank rule of quantile. With n <= minTail no quantile
// qualifies and the median (0.5) is returned.
func tailQuantile(n int, want float64) float64 {
	if n <= minTail {
		return 0.5
	}
	q := float64(n-minTail) / float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the nearest-rank q-quantile of sorted samples: the
// value at index ceil(q*n)-1.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// beyond is the number of samples strictly after the nearest-rank
// q-quantile's index.
func beyond(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return n - 1 - i
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// dist summarizes latency samples: median and the tail quantile the
// sample count supports.
type dist struct {
	N    int
	P50  float64
	Tail float64
	// TailQ is the quantile Tail was taken at (0.99 when N >= 1000).
	TailQ float64
}

func summarize(xs []float64, want float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := tailQuantile(len(s), want)
	return dist{N: len(s), P50: quantile(s, 0.5), Tail: quantile(s, q), TailQ: q}
}

// inputMedians takes samples laid out pass by pass, each pass covering
// the same inputs in the same order, and returns each input's median
// over the passes.
func inputMedians(lat []float64, passes int) []float64 {
	if passes <= 1 {
		return lat
	}
	n := len(lat) / passes
	out := make([]float64, n)
	col := make([]float64, passes)
	for i := range out {
		for p := range col {
			col[p] = lat[p*n+i]
		}
		out[i] = median(col)
	}
	return out
}
