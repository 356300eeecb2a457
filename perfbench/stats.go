package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// needs at least 1000 samples, so its value rests on ten tail observations
// rather than one.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses a percentile with fewer than minTail samples above its rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time span in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it covered by its
// children. Children may overlap each other and may stick out of the parent;
// only their union inside the parent counts.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, c := range clipped {
		if open && c.start <= curE {
			curE = max(curE, c.end)
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = c.start, c.end, true
	}
	if open {
		covered += curE - curS
	}
	return (parent.end - parent.start) - covered
}
