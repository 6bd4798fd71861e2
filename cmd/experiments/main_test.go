package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"convmeter"
)

// TestRunWithTelemetry is the acceptance test for the telemetry flags: a
// real exttrainreal run with -metrics-out and -trace-out must produce a
// Prometheus metrics file whose step counter matches the training loop
// and a Chrome trace whose fwd/bwd/grad events are time-contained within
// the experiment event.
func TestRunWithTelemetry(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	tracePath := filepath.Join(dir, "trace.json")
	outPath := filepath.Join(dir, "report.txt")
	opts := options{
		id: "exttrainreal", seed: 5, quick: true,
		outPath: outPath, metricsOut: metricsPath, traceOut: tracePath,
	}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}

	// Metrics: parse the exposition text into name -> value and check the
	// training-loop counters against the quick fixture's known shape
	// (2 workers × 12 steps).
	values := parsePromFile(t, metricsPath)
	const wantSteps = 12
	if got := values["convmeter_train_steps_total"]; got != wantSteps {
		t.Fatalf("convmeter_train_steps_total = %g, want %d", got, wantSteps)
	}
	if got := values["convmeter_experiments_total"]; got != 1 {
		t.Fatalf("convmeter_experiments_total = %g, want 1", got)
	}
	if got := values[`convmeter_allreduce_steps_total{transport="chan"}`]; got == 0 {
		t.Fatal("no allreduce steps recorded")
	}
	convmeterSamples := 0
	for name := range values {
		if strings.HasPrefix(name, "convmeter_") {
			convmeterSamples++
		}
	}
	if convmeterSamples < 10 {
		t.Fatalf("only %d convmeter_ samples; the run barely recorded anything", convmeterSamples)
	}

	// Trace: fwd/bwd/grad events must sit inside the experiment event.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TsUS  float64 `json:"ts"`
			DurUS float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var expStart, expEnd float64
	haveExp := false
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && e.Name == "experiment:exttrainreal" {
			expStart, expEnd = e.TsUS, e.TsUS+e.DurUS
			haveExp = true
		}
	}
	if !haveExp {
		t.Fatal("trace has no experiment:exttrainreal event")
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		switch e.Name {
		case "fwd", "bwd", "grad":
			counts[e.Name]++
			if e.TsUS < expStart || e.TsUS+e.DurUS > expEnd {
				t.Fatalf("%s event [%g, %g] escapes the experiment window [%g, %g]",
					e.Name, e.TsUS, e.TsUS+e.DurUS, expStart, expEnd)
			}
		}
	}
	if counts["grad"] != wantSteps {
		t.Fatalf("%d grad events, want %d", counts["grad"], wantSteps)
	}
	if counts["fwd"] == 0 || counts["bwd"] == 0 {
		t.Fatalf("missing exec events: %v", counts)
	}

	// The report itself must still have been written.
	report, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "data-parallel training") {
		t.Fatal("report missing experiment output")
	}
}

// TestRunChaosResumesFromDagDir is the acceptance test for the fault
// flags: a seeded exttrainfaults run must survive the chaos profile
// (crash, drops, corruption — the experiment asserts survivor
// correctness itself) and export positive fault counters, and a re-run
// over the same -dag-dir must be served from its manifests.
func TestRunChaosResumesFromDagDir(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	opts := options{
		id: "exttrainfaults", seed: 1, quick: true, faultsSeed: 7,
		outPath:    filepath.Join(dir, "report.txt"),
		metricsOut: metricsPath,
		dagDir:     filepath.Join(dir, "run"),
		dagWorkers: 2,
	}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	values := parsePromFile(t, metricsPath)
	for _, class := range []string{"crash", "drop", "corrupt"} {
		series := `convmeter_faults_injected_total{class="` + class + `"}`
		if values[series] < 1 {
			t.Fatalf("%s = %g, want >= 1", series, values[series])
		}
	}
	if values["convmeter_train_workers_removed_total"] < 1 {
		t.Fatal("no worker removal recorded despite the scheduled crash")
	}

	// Re-run over the same directory: both nodes (the experiment and the
	// report) are served from their manifests, so the trainer never runs
	// and its counters stay dark.
	first := opts.outPath
	metrics2 := filepath.Join(dir, "metrics2.prom")
	opts.metricsOut = metrics2
	opts.outPath = filepath.Join(dir, "report2.txt")
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	values2 := parsePromFile(t, metrics2)
	if got := values2["convmeter_dag_resumed_total"]; got != 2 {
		t.Fatalf("convmeter_dag_resumed_total = %g, want 2", got)
	}
	if got := values2["convmeter_train_steps_total"]; got != 0 {
		t.Fatalf("resumed run re-trained: %g steps", got)
	}
	want, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(opts.outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed report differs from the first run:\n--- first ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestRunWithoutTelemetry keeps the default path dark: no flags, no files.
func TestRunWithoutTelemetry(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		id: "fig2", seed: 5, quick: true,
		outPath: filepath.Join(dir, "report.txt"),
	}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files in out dir, want only the report", len(entries))
	}
}

// TestRunDagCrashResume is the CLI-level leg of the crash-resume proof:
// a -dag-crash run dies with ErrDagCrashed after committing its
// upstream manifests, and a plain re-run over the same -dag-dir resumes
// and produces a report byte-identical to an uninterrupted run.
func TestRunDagCrashResume(t *testing.T) {
	dir := t.TempDir()
	base := options{
		id: "table1", seed: 5, quick: true, faultsSeed: 7,
		dagWorkers: 2,
	}

	clean := base
	clean.dagDir = filepath.Join(dir, "clean")
	clean.outPath = filepath.Join(dir, "clean.txt")
	if err := run(clean); err != nil {
		t.Fatal(err)
	}

	crashed := base
	crashed.dagDir = filepath.Join(dir, "resume")
	crashed.dagCrash = "lomo@boundary"
	crashed.dagOut = filepath.Join(dir, "crashed-dag.json")
	err := run(crashed)
	if !errors.Is(err, convmeter.ErrDagCrashed) {
		t.Fatalf("crash run err = %v, want ErrDagCrashed", err)
	}
	audit, err := os.ReadFile(crashed.dagOut)
	if err != nil {
		t.Fatal(err)
	}
	var dagDoc struct {
		Crashed string `json:"crashed"`
		Nodes   []struct {
			ID       string `json:"id"`
			State    string `json:"state"`
			Manifest string `json:"manifest"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(audit, &dagDoc); err != nil {
		t.Fatalf("-dag-out invalid JSON: %v\n%s", err, audit)
	}
	if dagDoc.Crashed != "lomo@boundary" {
		t.Fatalf("audit blames %q, want lomo@boundary", dagDoc.Crashed)
	}
	for _, n := range dagDoc.Nodes {
		if n.ID == "fit" && (n.State != "done" || n.Manifest == "") {
			t.Fatalf("fit should have committed before the kill: %+v", n)
		}
	}

	resume := base
	resume.dagDir = crashed.dagDir
	resume.outPath = filepath.Join(dir, "resumed.txt")
	resume.dagOut = filepath.Join(dir, "resumed-dag.json")
	if err := run(resume); err != nil {
		t.Fatalf("resume: %v", err)
	}
	cleanReport, err := os.ReadFile(clean.outPath)
	if err != nil {
		t.Fatal(err)
	}
	resumedReport, err := os.ReadFile(resume.outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(cleanReport) != string(resumedReport) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- clean ---\n%s\n--- resumed ---\n%s",
			cleanReport, resumedReport)
	}
	audit2, err := os.ReadFile(resume.dagOut)
	if err != nil {
		t.Fatal(err)
	}
	var resumedDoc struct {
		Resumed int `json:"resumed"`
	}
	if err := json.Unmarshal(audit2, &resumedDoc); err != nil {
		t.Fatal(err)
	}
	if resumedDoc.Resumed != 1 {
		t.Fatalf("resume reused %d node(s), want 1 (fit)", resumedDoc.Resumed)
	}
}

// parsePromFile reads a Prometheus text file into series -> value.
func parsePromFile(t *testing.T, path string) map[string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	values := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		values[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return values
}

// driftDoc mirrors the -drift-out JSON layout.
type driftDoc struct {
	Streams []struct {
		Model  string `json:"model"`
		Phase  string `json:"phase"`
		State  string `json:"state"`
		Pairs  int    `json:"pairs"`
		Events int    `json:"events"`
	} `json:"streams"`
	Events int `json:"events_total"`
}

// TestRunDriftArtefact checks the -drift-out verdict at the CLI level.
// The chaos run feeds the one live stream, trainreal/iter: under the
// slowdown profile it must latch drifting with at least one drift event,
// and under the none profile it must raise none (the detector's
// false-positive guard). fig2's offline LOMO evaluations feed no stream
// at all.
func TestRunDriftArtefact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    options
		streams int
		drifts  bool
	}{
		{"slowdown", options{id: "exttrainfaults", seed: 1, quick: true, faultsSeed: 7, faultsProfile: "slowdown"}, 1, true},
		{"exttrainfaults", options{id: "exttrainfaults", seed: 1, quick: true, faultsSeed: 7, faultsProfile: "none"}, 1, false},
		{"fig2", options{id: "fig2", seed: 1, quick: true}, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			driftPath := filepath.Join(dir, "drift.json")
			opts := tc.opts
			opts.outPath = filepath.Join(dir, "report.txt")
			opts.driftOut = driftPath
			if err := run(opts); err != nil {
				t.Fatal(err)
			}
			var doc driftDoc
			data, err := os.ReadFile(driftPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Streams) != tc.streams {
				t.Fatalf("drift artefact has %d streams, want %d: %+v", len(doc.Streams), tc.streams, doc)
			}
			for _, st := range doc.Streams {
				if st.Model != "trainreal" || st.Phase != "iter" || st.Pairs == 0 {
					t.Fatalf("stream %+v, want trainreal/iter with pairs", st)
				}
			}
			if tc.drifts {
				if doc.Streams[0].State != "drifting" || doc.Events < 1 {
					t.Fatalf("slowdown run did not drift: %+v", doc)
				}
			} else if doc.Events != 0 {
				t.Fatalf("clean run raised %d drift events: %+v", doc.Events, doc)
			}
		})
	}
}
