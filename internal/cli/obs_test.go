package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFitTraceOut: -trace-out writes the run's Chrome trace, creating
// missing parent directories. A simulated fit records one
// bench:<model>@<image> span per sweep task; a fit from -data sweeps
// nothing, so its trace holds no bench span.
func TestFitTraceOut(t *testing.T) {
	dir := t.TempDir()
	data := writeSmallDataset(t, false)
	for _, tc := range []struct {
		name  string
		args  []string
		bench bool
	}{
		{"simulated", nil, true},
		{"data", []string{"-data", data}, false},
	} {
		tracePath := filepath.Join(dir, tc.name, "trace.json")
		args := append([]string{"fit", "-kind", "inference", "-out", filepath.Join(dir, tc.name+".json"),
			"-trace-out", tracePath}, tc.args...)
		if code, _, errOut := run(t, args...); code != 0 {
			t.Fatalf("%s fit failed: %s", tc.name, errOut)
		}
		raw, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s fit: trace does not parse: %v", tc.name, err)
		}
		bench := 0
		for _, e := range doc.TraceEvents {
			if strings.HasPrefix(e.Name, "bench:") {
				bench++
			}
		}
		if (bench > 0) != tc.bench {
			t.Fatalf("%s fit: %d bench spans, want some: %t", tc.name, bench, tc.bench)
		}
	}
}

// rejectsFlag checks that fit, predict and dissect fail on name as an
// unknown flag, before any work runs.
func rejectsFlag(t *testing.T, name, value string) {
	t.Helper()
	for _, cmd := range []string{"fit", "predict", "dissect"} {
		code, out, errOut := run(t, cmd, name, value)
		if code != 1 || out != "" || !strings.Contains(errOut, "flag provided but not defined: "+name) {
			t.Fatalf("%s %s: code=%d out=%q err=%q, want an unknown-flag error", cmd, name, code, out, errOut)
		}
	}
}

// TestOpsAddrRejected: the commands that take the telemetry flags
// write their signals to files only; -ops-addr is an unknown flag.
func TestOpsAddrRejected(t *testing.T) {
	rejectsFlag(t, "-ops-addr", "localhost:0")
}

// TestMetricsOutRejected: a run's numbers come from its trace and its
// result records; -metrics-out is an unknown flag.
func TestMetricsOutRejected(t *testing.T) {
	rejectsFlag(t, "-metrics-out", filepath.Join(t.TempDir(), "m.prom"))
}
