// Package tracefmt serialises simulated training-step timelines into the
// Chrome trace-event JSON format (chrome://tracing, Perfetto), so the
// phase structure the paper's Figure 1 sketches — forward, backward, the
// overlapped per-bucket gradient all-reduces, the optimizer tail — can be
// inspected visually for any model and cluster topology.
//
// The event serialisation itself lives in internal/obs (TraceEvent,
// WriteTraceEvents), which the runtime telemetry layer also uses for real
// measured spans; this package is the adapter that renders trainsim's
// *simulated* timelines in the same format.
package tracefmt

import (
	"fmt"
	"io"
	"sort"

	"convmeter/internal/obs"
	"convmeter/internal/trainsim"
)

// trackNames labels the two tracks of a training-step timeline.
var trackNames = map[int]string{0: "compute", 1: "network"}

// WriteChromeTrace writes one worker's events as a Chrome trace-event
// JSON document (object form with a traceEvents array plus thread-name
// metadata). An empty timeline — a zero-layer or otherwise degenerate
// model — yields a valid empty document, not an error, so every
// timeline pipes cleanly into Perfetto.
//
// The thread-name metadata is emitted in sorted track order: trace
// documents are serialized output and must be bit-identical across
// runs.
func WriteChromeTrace(w io.Writer, events []trainsim.TimelineEvent) error {
	var out []obs.TraceEvent
	seen := map[int]bool{}
	for _, e := range events {
		if e.Dur < 0 || e.Start < 0 {
			return fmt.Errorf("tracefmt: event %q has negative time", e.Name)
		}
		seen[e.Track] = true
		out = append(out, obs.TraceEvent{
			Name: e.Name, Phase: "X",
			TsUS: e.Start * 1e6, DurUS: e.Dur * 1e6,
			Pid: 1, Tid: e.Track,
		})
	}
	tracks := make([]int, 0, len(seen))
	for tr := range seen {
		tracks = append(tracks, tr)
	}
	sort.Ints(tracks)
	for _, tr := range tracks {
		name := trackNames[tr]
		if name == "" {
			name = fmt.Sprintf("track %d", tr)
		}
		out = append(out, obs.TraceEvent{
			Name: "thread_name", Phase: "M", Pid: 1, Tid: tr,
			Args: map[string]any{"name": name},
		})
	}
	return obs.WriteTraceEvents(w, out)
}
