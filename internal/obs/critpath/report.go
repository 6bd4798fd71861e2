package critpath

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"convmeter/internal/obs"
)

// Validate checks a step attribution's internal consistency: every
// duration finite and non-negative, a known dominant class, a blamed
// worker that exists in a wait-dominated step, workers sorted by id.
// cmd/obscheck runs it on every step it analyzes from a written trace.
func Validate(a StepAttribution) error {
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"total", a.Total}, {"compute", a.Compute}, {"comm", a.Comm},
		{"wait", a.Wait}, {"blame_wait", a.BlameWait},
		{"path_compute", a.PathCompute}, {"path_comm", a.PathComm},
		{"path_wait", a.PathWait},
	} {
		if badSeconds(v.val) {
			return fmt.Errorf("critpath: step %d: %s_seconds = %g", a.Step, v.name, v.val)
		}
	}
	switch a.Dominant {
	case ClassCompute, ClassComm, ClassWait, "none":
	default:
		return fmt.Errorf("critpath: step %d: dominant %q", a.Step, a.Dominant)
	}
	if a.Blame >= 0 {
		if a.Dominant != ClassWait {
			return fmt.Errorf("critpath: step %d: blame %d with dominant %q", a.Step, a.Blame, a.Dominant)
		}
		found := false
		for _, w := range a.Workers {
			if w.Worker == a.Blame {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("critpath: step %d: blamed worker %d not in attribution", a.Step, a.Blame)
		}
	}
	for i, w := range a.Workers {
		if i > 0 && w.Worker <= a.Workers[i-1].Worker {
			return fmt.Errorf("critpath: step %d: workers not sorted", a.Step)
		}
		for _, v := range []struct {
			name string
			val  float64
		}{
			{"compute", w.Compute}, {"comm", w.Comm}, {"wait", w.Wait},
			{"caused_wait", w.CausedWait},
		} {
			if badSeconds(v.val) {
				return fmt.Errorf("critpath: step %d: worker %d: %s_seconds = %g", a.Step, w.Worker, v.name, v.val)
			}
		}
	}
	for _, n := range a.Path {
		if badSeconds(n.Contribution) {
			return fmt.Errorf("critpath: step %d: path node %d contribution %g",
				a.Step, n.Span, n.Contribution)
		}
	}
	return nil
}

// badSeconds reports a duration that is negative, NaN or infinite.
func badSeconds(v float64) bool {
	return !(v >= 0) || math.IsInf(v, 1)
}

// stepNumber parses the name of a trainer's step span, "step N".
func stepNumber(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "step ")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil && n >= 0
}

// Analyze attributes every training step in a recorded trace, one
// attribution per step in the order the steps started. It groups the
// spans by their nearest "step N" ancestor and runs AnalyzeStep on each
// group, so a step sees exactly its own subtree: spans that another
// trainer recorded meanwhile belong to that trainer's steps. A trace
// without step spans gives no attributions.
func Analyze(spans []obs.SpanRecord) []StepAttribution {
	index := make(map[int64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	var steps []int
	groups := map[int][]obs.SpanRecord{} // step span index → its subtree
	for i, s := range spans {
		if _, ok := stepNumber(s.Name); ok {
			steps = append(steps, i)
		}
		for p, ok := index[s.Parent]; ok; p, ok = index[spans[p].Parent] {
			if _, isStep := stepNumber(spans[p].Name); isStep {
				groups[p] = append(groups[p], s)
				break
			}
		}
	}
	sort.Slice(steps, func(a, b int) bool {
		sa, sb := spans[steps[a]], spans[steps[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.ID < sb.ID
	})
	atts := make([]StepAttribution, 0, len(steps))
	for _, i := range steps {
		n, _ := stepNumber(spans[i].Name)
		atts = append(atts, AnalyzeStep(n, groups[i]))
	}
	return atts
}
