package critpath

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"convmeter/internal/obs"
)

// Validate checks a step attribution's internal consistency — the same
// invariants cmd/obscheck enforces on exported reports.
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
		if v.val < 0 || math.IsNaN(v.val) {
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
	for i := 1; i < len(a.Workers); i++ {
		if a.Workers[i].Worker <= a.Workers[i-1].Worker {
			return fmt.Errorf("critpath: step %d: workers not sorted", a.Step)
		}
	}
	for _, n := range a.Path {
		if n.Contribution < 0 {
			return fmt.Errorf("critpath: step %d: path node %d contribution %g",
				a.Step, n.Span, n.Contribution)
		}
	}
	return nil
}

// Report is the exported critpath artefact: the retained step
// attributions, newest last.
type Report struct {
	Schema string            `json:"schema"`
	Steps  []StepAttribution `json:"steps"`
}

// trackerRing bounds Tracker memory on long runs.
const trackerRing = 128

// Tracker retains the most recent step attributions and mirrors the
// latest one onto convmeter_critpath_* gauges, so the ops server can
// serve both a JSON report and live scrapeable metrics. Nil-safe: a nil
// *Tracker records nothing.
type Tracker struct {
	mu    sync.Mutex
	steps []StepAttribution
	next  int
	full  bool

	compute, comm, wait *obs.Gauge
	blame, blameWait    *obs.Gauge
	count               *obs.Counter
}

// NewTracker returns a tracker publishing gauges on o (which may be nil
// — the tracker still retains attributions for the report).
func NewTracker(o *obs.Obs) *Tracker {
	return &Tracker{
		compute: o.Gauge("convmeter_critpath_compute_seconds",
			"last analyzed step: compute time summed across workers"),
		comm: o.Gauge("convmeter_critpath_comm_seconds",
			"last analyzed step: communication time summed across workers"),
		wait: o.Gauge("convmeter_critpath_wait_seconds",
			"last analyzed step: waiting time summed across workers"),
		blame: o.Gauge("convmeter_critpath_blame_worker",
			"worker blamed for the last analyzed step's waits; -1 when none"),
		blameWait: o.Gauge("convmeter_critpath_blame_wait_seconds",
			"waiting time attributed to the blamed worker; 0 when no blame"),
		count: o.Counter("convmeter_critpath_steps_total",
			"training steps analyzed by the critical-path engine"),
	}
}

// Record retains one step attribution and refreshes the gauges.
// Nil-safe.
func (t *Tracker) Record(a StepAttribution) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.steps) < trackerRing {
		t.steps = append(t.steps, a)
	} else {
		t.steps[t.next] = a
		t.full = true
	}
	t.next = (t.next + 1) % trackerRing
	t.mu.Unlock()
	t.compute.Set(a.Compute)
	t.comm.Set(a.Comm)
	t.wait.Set(a.Wait)
	t.blame.Set(float64(a.Blame))
	t.blameWait.Set(a.BlameWait)
	t.count.Inc()
}

// Report snapshots the retained attributions, oldest first. Nil-safe
// (returns an empty, schema-stamped report).
func (t *Tracker) Report() Report {
	rep := Report{Schema: SchemaV1, Steps: []StepAttribution{}}
	if t == nil {
		return rep
	}
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

// WriteJSON writes the report as indented JSON. Nil-safe (writes a
// valid empty report).
func (t *Tracker) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Report())
}
