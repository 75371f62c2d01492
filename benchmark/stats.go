package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0-100) of an ascending slice by
// linear interpolation between the two closest ranks; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// sortedCopy returns xs in ascending order without touching the caller's
// slice (samples stay in arrival order for the trace file).
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// mean is the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// reportable lists the percentiles a run may report, ascending, each with
// the share of samples beyond it in parts per thousand (integers keep the
// rule exact at the boundaries).
var reportable = []struct {
	p      float64
	beyond int
}{{50, 500}, {75, 250}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// topPercentile is the reporting rule of the choosing-metrics guide: the
// highest percentile that still has at least ten samples beyond it. Below
// twenty samples not even the median qualifies and 0 is returned.
func topPercentile(n int) float64 {
	top := 0.0
	for _, r := range reportable {
		if n*r.beyond >= 10*1000 {
			top = r.p
		}
	}
	return top
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default exclusive method), which is how the driver judges run-to-run
// spread; it needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	m := len(data)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 when fewer than two values exist (no spread is observable).
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
