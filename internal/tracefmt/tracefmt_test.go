package tracefmt

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"convmeter/internal/hwsim"
	"convmeter/internal/models"
	"convmeter/internal/netsim"
	"convmeter/internal/trainsim"
)

func makeTimeline(t *testing.T) []trainsim.TimelineEvent {
	t.Helper()
	sim, err := trainsim.New(trainsim.Config{
		Device: hwsim.A100(), Fabric: netsim.Cluster(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := models.Build("resnet50", 128)
	if err != nil {
		t.Fatal(err)
	}
	events, phases, err := sim.Timeline(g, 32, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if phases.Iter <= 0 {
		t.Fatal("bad phases")
	}
	return events
}

func TestTimelineStructure(t *testing.T) {
	events := makeTimeline(t)
	var fwd, bwd, opt *trainsim.TimelineEvent
	comm := 0
	for i := range events {
		switch {
		case events[i].Name == "forward":
			fwd = &events[i]
		case events[i].Name == "backward":
			bwd = &events[i]
		case events[i].Name == "optimizer":
			opt = &events[i]
		case events[i].Track == 1:
			comm++
		}
	}
	if fwd == nil || bwd == nil || opt == nil {
		t.Fatal("missing core phases")
	}
	if comm == 0 {
		t.Fatal("no communication buckets on the network track")
	}
	if fwd.Start != 0 || bwd.Start != fwd.Dur {
		t.Fatal("forward/backward must be contiguous from t=0")
	}
	if opt.Start < bwd.Start+bwd.Dur {
		t.Fatal("optimizer cannot start before the backward pass ends")
	}
	// Communication must overlap the backward pass (Horovod tensor
	// fusion): the first bucket starts before the backward pass ends.
	firstComm := events[2]
	if firstComm.Track != 1 || firstComm.Start >= bwd.Start+bwd.Dur {
		t.Fatalf("first all-reduce at %g does not overlap backward ending %g",
			firstComm.Start, bwd.Start+bwd.Dur)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := makeTimeline(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(events) {
		t.Fatalf("trace has %d events, want >= %d", len(doc.TraceEvents), len(events))
	}
	if !strings.Contains(buf.String(), "allreduce bucket") {
		t.Fatal("bucket spans missing from trace")
	}
	if !strings.Contains(buf.String(), `"network"`) {
		t.Fatal("thread-name metadata missing")
	}
	sawComplete := false
	var tracks []float64
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" {
			sawComplete = true
			if e["ts"].(float64) < 0 || e["dur"].(float64) < 0 {
				t.Fatal("negative timestamps")
			}
		}
		if e["name"] == "thread_name" {
			tracks = append(tracks, e["tid"].(float64))
		}
	}
	if !sawComplete {
		t.Fatal("no complete events")
	}
	if len(tracks) != 2 || !sort.Float64sAreSorted(tracks) {
		t.Fatalf("thread metadata for tracks %v, want compute and network in track order", tracks)
	}
	// One worker's timeline renders under one process, with no process
	// metadata.
	if strings.Contains(buf.String(), "process_name") {
		t.Fatalf("trace grew process metadata:\n%s", buf.String())
	}
	// Two renders must be byte-identical: the trace is serialized output
	// under the replayability contract.
	var again bytes.Buffer
	if err := WriteChromeTrace(&again, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("trace render is not deterministic")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	// An empty timeline must render as a valid empty document — Perfetto
	// accepts it — rather than an error.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatalf("empty timeline: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid empty-trace JSON: %v", err)
	}
	if doc.TraceEvents == nil {
		t.Fatal("traceEvents must be an empty array, not null")
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty timeline produced %d events", len(doc.TraceEvents))
	}
}

func TestWriteChromeTraceErrors(t *testing.T) {
	var buf bytes.Buffer
	for _, bad := range []trainsim.TimelineEvent{
		{Name: "x", Start: -1, Dur: 1},
		{Name: "y", Start: 0, Dur: -1},
	} {
		if err := WriteChromeTrace(&buf, []trainsim.TimelineEvent{bad}); err == nil || !strings.Contains(err.Error(), bad.Name) {
			t.Fatalf("event %+v: err = %v, want a negative-time error naming it", bad, err)
		}
	}
}
