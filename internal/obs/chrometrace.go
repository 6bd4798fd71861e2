package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceEvent is one Chrome trace-event: a complete span ("X"), an
// instant ("i"), or metadata ("M"). Timestamps and durations are in
// microseconds per the trace-event format spec. This generic form is
// shared by real measured runs (Tracer.WriteChromeTrace) and the
// simulated training-step timelines of internal/tracefmt.
type TraceEvent struct {
	Name  string
	Phase string // defaults to "X" when empty
	TsUS  float64
	DurUS float64
	Pid   int
	Tid   int
	Args  map[string]any
}

// MarshalJSON renders the event with the spec's lower-case keys.
func (e TraceEvent) MarshalJSON() ([]byte, error) {
	ph := e.Phase
	if ph == "" {
		ph = "X"
	}
	m := map[string]any{
		"name": e.Name, "ph": ph,
		"ts": e.TsUS, "dur": e.DurUS,
		"pid": e.Pid, "tid": e.Tid,
	}
	if len(e.Args) > 0 {
		m["args"] = e.Args
	}
	return json.Marshal(m)
}

// WriteTraceEvents writes a Chrome trace-event JSON document (object
// form with a traceEvents array). An empty event slice produces a valid
// empty document — Perfetto accepts it — rather than an error, so
// zero-span runs and zero-layer timelines pipe cleanly into tooling.
func WriteTraceEvents(w io.Writer, events []TraceEvent) error {
	out := struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}{TraceEvents: []json.RawMessage{}}
	for _, e := range events {
		if e.TsUS < 0 || e.DurUS < 0 {
			return fmt.Errorf("obs: trace event %q has negative time", e.Name)
		}
		raw, err := json.Marshal(e)
		if err != nil {
			return err
		}
		out.TraceEvents = append(out.TraceEvents, raw)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// Chrome-trace pids: unattributed spans render under the main process,
// worker-attributed spans under a separate "workers" process whose
// threads are the worker ids — one stable, sorted timeline row per
// worker regardless of span interleaving.
const (
	tracePidMain    = 1
	tracePidWorkers = 2
)

// WriteChromeTrace exports every finished span as a complete event.
// Unattributed spans get one Chrome "thread" per span track named after
// the track's root span, so nested spans render as Perfetto flame
// slices; worker-attributed spans are merged onto a per-worker thread of
// a dedicated "workers" process. Every X event carries args {id, parent}
// (+ worker and link when set) so the span graph survives the export.
// Nil-safe (writes a valid empty document).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Track != spans[j].Track {
			return spans[i].Track < spans[j].Track
		}
		return spans[i].Start < spans[j].Start
	})
	var events []TraceEvent
	trackName := map[int64]string{}
	workers := map[int]bool{}
	for _, s := range spans {
		pid, tid := tracePidMain, int(s.Track)
		if s.Worker >= 0 {
			pid, tid = tracePidWorkers, s.Worker
			workers[s.Worker] = true
		} else if s.ID == s.Track {
			trackName[s.Track] = s.Name
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Worker >= 0 {
			args["worker"] = s.Worker
		}
		if s.Link.Valid() {
			args["link"] = s.Link.Span
		}
		events = append(events, TraceEvent{
			Name: s.Name, Phase: "X",
			TsUS:  float64(s.Start.Nanoseconds()) / 1e3,
			DurUS: float64(s.Dur.Nanoseconds()) / 1e3,
			Pid:   pid, Tid: tid, Args: args,
		})
	}
	tracks := make([]int64, 0, len(trackName))
	for tr := range trackName {
		tracks = append(tracks, tr)
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })
	for _, tr := range tracks {
		events = append(events, TraceEvent{
			Name: "thread_name", Phase: "M", Pid: tracePidMain, Tid: int(tr),
			Args: map[string]any{"name": trackName[tr]},
		})
	}
	if len(workers) > 0 {
		events = append(events, TraceEvent{
			Name: "process_name", Phase: "M", Pid: tracePidWorkers,
			Args: map[string]any{"name": "workers"},
		})
		ws := make([]int, 0, len(workers))
		for w := range workers {
			ws = append(ws, w)
		}
		sort.Ints(ws)
		for _, wk := range ws {
			events = append(events, TraceEvent{
				Name: "thread_name", Phase: "M", Pid: tracePidWorkers, Tid: wk,
				Args: map[string]any{"name": fmt.Sprintf("worker %d", wk)},
			})
		}
	}
	return WriteTraceEvents(w, events)
}
