package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into quarters,
// by the same exclusive method as Python's statistics.quantiles(xs, n=4).
// With fewer than two values every cut point is that value (0 for none).
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the distance between the first and third quartile of xs as
// a share of their median: the run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(med)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// tailPercentiles are the percentiles a tail is reported at.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest of tailPercentiles that has at least ten of
// the n samples beyond it, and its value. ok is false below 20 samples,
// where not even the median has ten beyond it.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		// n(100-p)/100 samples lie beyond p; the slack absorbs the
		// rounding of 100-p.
		if float64(len(xs))*(100-p) >= 1000-1e-6 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// geomean returns the geometric mean of positive xs; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// normalise rescales a timed metric measured while the yardstick read
// yardMs to what it would read with the yardstick at its nominal value:
// on a host running slow, times shrink and rates grow accordingly.
func normalise(v, yardMs, nominalMs float64, better string) float64 {
	if yardMs <= 0 {
		return v
	}
	if better == "higher" {
		return v * yardMs / nominalMs
	}
	return v * nominalMs / yardMs
}

// worsening returns by which share cur is worse than base for a metric
// where better is "lower" or "higher"; negative when cur is better.
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// withinBound reports whether cur is worse than base by no more than
// bound, a share of base.
func withinBound(base, cur, bound float64, better string) bool {
	return worsening(base, cur, better) <= bound
}
