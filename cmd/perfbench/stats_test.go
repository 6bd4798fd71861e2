package main

import (
	"math"
	"testing"
	"time"

	"convmeter/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); !near(got[0], c.want[0]) || !near(got[1], c.want[1]) || !near(got[2], c.want[2]) {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean = %v", got)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {99, 75, true}, {100, 90, true},
		{200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p, v, ok := tail(xs)
		if ok != c.ok || p != c.want {
			t.Errorf("tail over %d samples = p%v ok %v, want p%v ok %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && !near(v, percentile(xs, p)) {
			t.Errorf("tail value %v, want percentile %v", v, percentile(xs, p))
		}
	}
	if got := percentile([]float64{10, 20, 30, 40, 50}, 75); got != 40 {
		t.Errorf("percentile = %v", got)
	}
}

func TestNormalise(t *testing.T) {
	// The host ran at half speed: the yardstick read twice its nominal.
	if got := normalise(10, 120, 60, "lower"); got != 5 {
		t.Errorf("time normalised to %v, want 5", got)
	}
	if got := normalise(10, 120, 60, "higher"); got != 20 {
		t.Errorf("rate normalised to %v, want 20", got)
	}
	if got := normalise(10, 0, 60, "lower"); got != 10 {
		t.Errorf("no yardstick reading must leave the value, got %v", got)
	}
}

func TestBounds(t *testing.T) {
	for _, c := range []struct {
		base, cur float64
		better    string
		want      bool
	}{
		{100, 110, "lower", true}, {100, 110.5, "lower", false}, {100, 50, "lower", true},
		{100, 90, "higher", true}, {100, 89.5, "higher", false}, {100, 150, "higher", true},
	} {
		if got := withinBound(c.base, c.cur, 0.1, c.better); got != c.want {
			t.Errorf("withinBound(%v, %v, 0.1, %s) = %v", c.base, c.cur, c.better, got)
		}
	}
	if got := worsening(100, 80, "higher"); !near(got, 0.2) {
		t.Errorf("worsening = %v", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	s := func(id, parent int64, from, to float64) obs.SpanRecord {
		return obs.SpanRecord{ID: id, Parent: parent,
			Start: time.Duration(from * float64(time.Second)), Dur: time.Duration((to - from) * float64(time.Second))}
	}
	// Children [1,3] and [2,5] overlap; [8,12] sticks out of the parent.
	spans := []obs.SpanRecord{s(1, 0, 0, 10), s(2, 1, 1, 3), s(3, 1, 2, 5), s(4, 1, 8, 12)}
	if got := selfTimes(spans)[1]; !near(got, 4) {
		t.Errorf("self time %v, want 4", got)
	}
}

func TestCrossCheckFindsDivergentOutputs(t *testing.T) {
	seg := func(fps ...string) *segResult {
		r := &segResult{Workload: "w"}
		for _, fp := range fps {
			r.Ops = append(r.Ops, opSample{FP: fp})
		}
		return r
	}
	if n, err := crossCheck([]*segResult{seg("a", "b"), seg("a", "b", "c"), seg("a")}); n != 0 || err != nil {
		t.Errorf("agreeing segments: %d, %v", n, err)
	}
	if n, err := crossCheck([]*segResult{seg("a", "b"), seg("a", "x")}); n != 1 || err == nil {
		t.Errorf("divergent segments: %d, %v", n, err)
	}
}
