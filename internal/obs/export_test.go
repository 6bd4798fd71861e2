package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

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

	// Worker-attributed spans share one "workers" process (pid 2), one
	// thread per worker id, named in ascending id order however the
	// workers' spans were recorded.
	o := &Obs{Trc: NewTracerWithClock(fakeClock(time.Millisecond))}
	step := o.Start("step 0")
	for _, w := range []int{2, 0, 1} {
		o.WithSpan(step).WithWorker(w).Start("compute").End()
	}
	step.End()
	sb.Reset()
	if err := o.Trc.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	doc = traceDoc{}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var processes, threads []string
	workerEvents := 0
	for _, e := range doc.TraceEvents {
		name, _ := e.Args["name"].(string)
		switch {
		case e.Phase == "M" && e.Name == "process_name":
			processes = append(processes, fmt.Sprintf("%d:%s", e.Pid, name))
		case e.Phase == "M" && e.Pid == 2:
			threads = append(threads, fmt.Sprintf("%d:%s", e.Tid, name))
		case e.Phase == "X" && e.Name == "compute":
			workerEvents++
			if w, _ := e.Args["worker"].(float64); e.Pid != 2 || float64(e.Tid) != w {
				t.Fatalf("worker %v span at pid %d tid %d, want pid 2 tid %v", e.Args["worker"], e.Pid, e.Tid, w)
			}
		case e.Phase == "X" && e.Pid != 1:
			t.Fatalf("unattributed span %q at pid %d, want 1", e.Name, e.Pid)
		}
	}
	if want := []string{"2:workers"}; !reflect.DeepEqual(processes, want) {
		t.Fatalf("process_name events %v, want %v", processes, want)
	}
	if want := []string{"0:worker 0", "1:worker 1", "2:worker 2"}; !reflect.DeepEqual(threads, want) {
		t.Fatalf("workers' thread_name events %v, want %v", threads, want)
	}
	if workerEvents != 3 {
		t.Fatalf("%d worker X events, want 3", workerEvents)
	}
}

// TestExportFiles: Export writes what its writer produces — here the
// Chrome trace of a finished span, the -trace-out artefact — and
// surfaces the writer's error.
func TestExportFiles(t *testing.T) {
	o := New()
	sp := o.Start("run")
	sp.End()

	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := Export(trace, o.Trc.WriteChromeTrace); err != nil {
		t.Fatal(err)
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

	bad := errors.New("writer failed")
	if err := Export(trace, func(io.Writer) error { return bad }); !errors.Is(err, bad) {
		t.Fatalf("Export returned %v, want the writer's error", err)
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

// TestExportCreatesParentDirs: an at-exit path under directories that
// don't exist yet must work — Export creates them.
func TestExportCreatesParentDirs(t *testing.T) {
	dir := t.TempDir()
	for _, p := range []string{
		filepath.Join(dir, "a", "b", "dag.json"),
		filepath.Join(dir, "c", "trace.json"),
	} {
		if err := Export(p, func(w io.Writer) error {
			_, err := io.WriteString(w, "{}\n")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(p); err != nil {
			t.Errorf("export did not create %s: %v", p, err)
		}
	}
}
