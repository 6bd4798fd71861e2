package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("convmeter_ops_total", "kind", "conv"), "op invocations").Add(7)
	r.Gauge("convmeter_workers", "worker pool size").Set(4)
	h := r.Histogram("convmeter_op_seconds", "op wall time", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# HELP convmeter_ops_total op invocations",
		"# TYPE convmeter_ops_total counter",
		`convmeter_ops_total{kind="conv"} 7`,
		"# TYPE convmeter_workers gauge",
		"convmeter_workers 4",
		"# TYPE convmeter_op_seconds histogram",
		`convmeter_op_seconds_bucket{le="0.001"} 1`,
		`convmeter_op_seconds_bucket{le="0.1"} 2`,
		`convmeter_op_seconds_bucket{le="+Inf"} 3`,
		"convmeter_op_seconds_sum 2.0505",
		"convmeter_op_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q\n%s", want, text)
		}
	}

	// Every non-comment line must be "<series> <value>" with a parseable
	// value — the same invariant cmd/obscheck enforces in CI.
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

// traceDoc decodes a Chrome trace-event document for assertions.
type traceDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TsUS  float64        `json:"ts"`
		DurUS float64        `json:"dur"`
		Pid   int            `json:"pid"`
		Tid   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteTraceEventsEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteTraceEvents(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"traceEvents": []`) {
		t.Fatalf("empty doc must render an empty array, got:\n%s", sb.String())
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceEvents == nil {
		t.Fatal("traceEvents decoded as null")
	}
}

func TestWriteTraceEventsRejectsNegativeTime(t *testing.T) {
	var sb strings.Builder
	err := WriteTraceEvents(&sb, []TraceEvent{{Name: "bad", TsUS: -1}})
	if err == nil {
		t.Fatal("negative timestamp must error")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracerWithClock(fakeClock(time.Millisecond))
	root := tr.Start("experiment")
	child := root.Child("step 0")
	child.End()
	root.End()

	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	// Two X events plus one thread_name metadata event for the track.
	var xNames []string
	meta := 0
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "X":
			xNames = append(xNames, e.Name)
			if e.Pid != 1 {
				t.Fatalf("event %q pid %d, want 1", e.Name, e.Pid)
			}
		case "M":
			meta++
			if e.Name != "thread_name" {
				t.Fatalf("metadata event named %q", e.Name)
			}
			if got, _ := e.Args["name"].(string); got != "experiment" {
				t.Fatalf("track named %q, want experiment", got)
			}
		}
	}
	if len(xNames) != 2 || meta != 1 {
		t.Fatalf("got X=%v meta=%d, want 2 X events and 1 metadata event", xNames, meta)
	}
	// Child must be time-contained within the root event.
	var rootEv, childEv *struct{ ts, end float64 }
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		span := &struct{ ts, end float64 }{e.TsUS, e.TsUS + e.DurUS}
		if e.Name == "experiment" {
			rootEv = span
		} else {
			childEv = span
		}
	}
	if rootEv == nil || childEv == nil {
		t.Fatal("missing expected events")
	}
	if childEv.ts < rootEv.ts || childEv.end > rootEv.end {
		t.Fatalf("child [%g,%g] not contained in root [%g,%g]",
			childEv.ts, childEv.end, rootEv.ts, rootEv.end)
	}
}

func TestExportFiles(t *testing.T) {
	o := New()
	o.Counter("convmeter_export_total", "h").Inc()
	sp := o.Start("run")
	sp.End()

	dir := t.TempDir()
	prom := filepath.Join(dir, "metrics.prom")
	trace := filepath.Join(dir, "trace.json")
	if err := o.Export(prom, trace); err != nil {
		t.Fatal(err)
	}

	promData, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(promData), "convmeter_export_total 1") {
		t.Fatalf("prometheus export:\n%s", promData)
	}
	traceData, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(traceData, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace export has no events")
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for _, kind := range []string{"conv", "linear", "relu", "pool"} {
		r.Counter(Label("convmeter_ops_total", "kind", kind), "h").Add(100)
		h := r.Histogram(Label("convmeter_op_seconds", "kind", kind), "h", DefaultDurationBuckets())
		h.Observe(1e-4)
	}
	var sb strings.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := r.WritePrometheus(&sb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteChromeTrace(b *testing.B) {
	tr := NewTracerWithClock(fakeClock(time.Microsecond))
	root := tr.Start("root")
	for i := 0; i < 64; i++ {
		sp := root.Child("op")
		sp.End()
	}
	root.End()
	var sb strings.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := tr.WriteChromeTrace(&sb); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExportCreatesParentDirs: -metrics-out/-trace-out paths under
// directories that don't exist yet must work — Export creates them.
func TestExportCreatesParentDirs(t *testing.T) {
	o := New()
	o.Counter("convmeter_export_total", "h").Inc()

	dir := t.TempDir()
	prom := filepath.Join(dir, "a", "b", "metrics.prom")
	trace := filepath.Join(dir, "c", "trace.json")
	if err := o.Export(prom, trace); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{prom, trace} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("export did not create %s: %v", p, err)
		}
	}
}
