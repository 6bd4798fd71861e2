package critpath

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// Validate checks a step attribution's internal consistency: every
// duration finite and non-negative, a known dominant class, a blamed
// worker that exists in a wait-dominated step, workers sorted by id.
// cmd/obscheck runs it on every step of an exported report.
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

// Report is the exported critpath artefact: the retained step
// attributions, newest last.
type Report struct {
	Schema string            `json:"schema"`
	Steps  []StepAttribution `json:"steps"`
}

// trackerRing bounds Tracker memory on long runs.
const trackerRing = 128

// Tracker retains the most recent step attributions for the
// -critpath-out report. The zero value is ready to use.
type Tracker struct {
	mu    sync.Mutex
	steps []StepAttribution
	next  int
	full  bool
}

// Record retains one step attribution.
func (t *Tracker) Record(a StepAttribution) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.steps) < trackerRing {
		t.steps = append(t.steps, a)
	} else {
		t.steps[t.next] = a
		t.full = true
	}
	t.next = (t.next + 1) % trackerRing
}

// Report snapshots the retained attributions, oldest first.
func (t *Tracker) Report() Report {
	rep := Report{Schema: SchemaV1, Steps: []StepAttribution{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		rep.Steps = append(rep.Steps, t.steps[t.next:]...)
		rep.Steps = append(rep.Steps, t.steps[:t.next]...)
	} else {
		rep.Steps = append(rep.Steps, t.steps...)
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (t *Tracker) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Report())
}
