package main

import (
	"math"
	"slices"
	"time"
)

// summary describes one metric's samples: the reported value is the
// median, the rest says how far the samples spread.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize sorts a copy of xs and takes its quartiles the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spread
// printed here is the one the driver computes.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := slices.Sorted(slices.Values(xs))
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 1),
		Median: quantile(s, 2),
		Q3:     quantile(s, 3),
		Max:    s[len(s)-1],
	}
}

// quantile returns the k-th quartile of sorted s (exclusive method).
func quantile(s []float64, k int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := float64(k) * float64(n+1) / 4
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func median(xs []float64) float64 { return summarize(xs).Median }

// percentile returns the p-th percentile (nearest rank) of sorted d.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

func sortDurations(d []time.Duration) { slices.Sort(d) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, 0 when b is 0: a layer the workload never entered
// reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
