package main

import "sort"

// summary is the order statistics one metric is reported with.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the exclusive method), which is
// what the benchmark driver computes spreads with; below two samples
// they collapse onto the median.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	out := summary{Median: median(s), N: n}
	out.Q1, out.Q3 = out.Median, out.Median
	if n >= 2 {
		out.Q1, out.Q3 = quartile(s, 1), quartile(s, 3)
	}
	return out
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartile i (1..3) of an ascending slice of at least two values.
func quartile(sorted []float64, i int) float64 {
	n := len(sorted)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// minHighSamples is how many samples must lie beyond a reported high
// percentile for it to mean anything.
const minHighSamples = 10

// highPercentile returns the highest order statistic of xs that still has
// minHighSamples samples beyond it, and which percentile that is. It
// declines below twice that many samples, where the value would sit at or
// under the median.
func highPercentile(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 2*minHighSamples {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - minHighSamples - 1
	return s[idx], 100 * float64(idx+1) / float64(n), true
}
