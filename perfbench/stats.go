package main

import (
	"fmt"
	"math"
	"sort"

	"poilabel/internal/trace"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 over 200 samples is the second-largest sample,
// not a tail estimate.
const minBeyond = 10

// ladder lists the percentiles a timing may be reported at.
var ladder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// rank is the nearest-rank index of the q-quantile among n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is the number of samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// quantile returns the nearest-rank q-quantile of the sorted samples, or 0
// when there are none.
func quantile(sortedXs []float64, q float64) float64 {
	if len(sortedXs) == 0 {
		return 0
	}
	return sortedXs[rank(len(sortedXs), q)]
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 when there are none.
func median(xs []float64) float64 {
	s := sorted(xs)
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

// highestSupported returns the highest ladder percentile that has at least
// minBeyond samples above it among n, or 0 when even the median has not.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range ladder {
		if beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

// tail reports the q-quantile of xs for an end-to-end timing. It fails when
// fewer than minBeyond samples lie beyond q, so a reported p99 is always a
// tail estimate; the message names the highest percentile the samples do
// support.
func tail(xs []float64, q float64) (float64, error) {
	if b := beyond(len(xs), q); b < minBeyond {
		return 0, fmt.Errorf("p%s of %d samples has %d beyond it (want ≥ %d; highest supported is p%s)",
			pctName(q), len(xs), b, minBeyond, pctName(highestSupported(len(xs))))
	}
	return quantile(sorted(xs), q), nil
}

// pctName renders 0.99 as "99" and 0.999 as "99.9".
func pctName(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1e4)/1e2)
}

// selfTimesUS returns each span's self time in microseconds: its duration
// minus the union of its children's intervals, clipped to the span. Using
// the union, not the sum, keeps children that run in parallel (the fit.shard
// spans of a sharded fit) from being subtracted twice.
func selfTimesUS(spans []trace.SpanView) []int64 {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if p := int(sp.Parent); p >= 0 && p < len(spans) && p != i {
			children[p] = append(children[p], i)
		}
	}
	out := make([]int64, len(spans))
	for i, sp := range spans {
		start, end := sp.StartUS, sp.StartUS+sp.DurationUS
		var iv [][2]int64
		for _, c := range children[i] {
			cs, ce := spans[c].StartUS, spans[c].StartUS+spans[c].DurationUS
			cs, ce = max(cs, start), min(ce, end)
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
		}
		out[i] = sp.DurationUS - unionUS(iv)
	}
	return out
}

// unionUS is the total length covered by the intervals.
func unionUS(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			curE = max(curE, x[1])
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
