// Package perf is the shared runner behind cmd/fabricperf: sample
// statistics, a closed-loop load driver, benchmark-side span recording with
// self-time attribution, and baseline comparison under per-metric bounds.
// It knows nothing about the fabric's workloads; the driver supplies the
// operations and the metric definitions.
package perf

import (
	"math"
	"sort"
)

// Summary describes one latency or throughput sample set the way the
// benchmark reports it: the median, the quartiles around it, and the
// highest percentile the sample count supports.
type Summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// TailP is the highest of 0.999, 0.99, 0.95 and 0.90 that still has at
	// least ten samples beyond it (0 when the set is too small for any);
	// Tail is the sample at that percentile.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// Summarize computes the Summary of xs. It does not modify xs.
func Summarize(xs []float64) Summary {
	s := sorted(xs)
	sum := Summary{N: len(s), Median: medianSorted(s)}
	sum.Q1, _, sum.Q3 = quartilesSorted(s)
	if p := TailPercentile(len(s)); p > 0 {
		sum.TailP, sum.Tail = p, percentileSorted(s, p)
	}
	return sum
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle sample (the mean of the two middle samples for
// an even count) and 0 for an empty set.
func Median(xs []float64) float64 { return medianSorted(sorted(xs)) }

func medianSorted(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartilesSorted returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), so
// quartiles reported here match ones a harness computes in Python. Fewer
// than two samples yield the single sample (or 0) three times.
func quartilesSorted(s []float64) (q1, q2, q3 float64) {
	n := len(s)
	if n < 2 {
		m := medianSorted(s)
		return m, m, m
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
	return cut(1), cut(2), cut(3)
}

// tailRank is the zero-based nearest-rank index of percentile p among n
// sorted samples.
func tailRank(n int, p float64) int {
	// The epsilon keeps a product like 0.99*1000, which floating point may
	// put a hair above 990, from rounding up a whole rank.
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// TailPercentile picks the highest percentile worth reporting for n samples:
// the largest of 0.999, 0.99, 0.95, 0.90 with at least ten samples strictly
// beyond its rank. It returns 0 when even p90 has fewer.
func TailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.90} {
		if n-1-tailRank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[tailRank(len(s), p)]
}
