package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"convmeter"
	"convmeter/internal/dagrun"
	"convmeter/internal/dagrun/manifest"
)

// TestRunWithTelemetry is the acceptance test for the telemetry flag: a
// clean exttrainfaults run with -trace-out must produce a Chrome trace
// with one step event per training step and fwd/bwd/grad events
// time-contained within the experiment event.
func TestRunWithTelemetry(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace", "trace.json") // parent created on export
	outPath := filepath.Join(dir, "report.txt")
	opts := options{
		id: "exttrainfaults", seed: 5, quick: true, faultsProfile: "none",
		outPath: outPath, traceOut: tracePath,
	}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	const wantSteps = 12 // the quick run: 4 workers × 12 steps

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
		if e.Phase == "X" && e.Name == "experiment:exttrainfaults" {
			expStart, expEnd = e.TsUS, e.TsUS+e.DurUS
			haveExp = true
		}
	}
	if !haveExp {
		t.Fatal("trace has no experiment:exttrainfaults event")
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		if strings.HasPrefix(e.Name, "step ") {
			counts["step"]++
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
	if counts["step"] != wantSteps || counts["grad"] != wantSteps {
		t.Fatalf("%d step and %d grad events, want %d each", counts["step"], counts["grad"], wantSteps)
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
// correctness itself) and record positive fault counts and the crashed
// worker's removal in its exp:exttrainfaults manifest, and a re-run
// over the same -dag-dir must be served from its manifests.
func TestRunChaosResumesFromDagDir(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		id: "exttrainfaults", seed: 1, quick: true, faultsSeed: 7,
		outPath:    filepath.Join(dir, "report.txt"),
		dagDir:     filepath.Join(dir, "run"),
		dagOut:     filepath.Join(dir, "dag.json"),
		dagWorkers: 2,
	}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(opts.dagDir, "exp:exttrainfaults.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var res struct{ Stats map[string]float64 }
	if err := json.Unmarshal(m.Output, &res); err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"crash", "drop", "corrupt"} {
		if got := res.Stats["faults_"+class]; got < 1 {
			t.Fatalf("faults_%s = %g, want >= 1", class, got)
		}
	}
	if res.Stats["workers_live"] >= res.Stats["workers_start"] {
		t.Fatalf("no worker removal recorded despite the scheduled crash: %g of %g live",
			res.Stats["workers_live"], res.Stats["workers_start"])
	}
	first := readDagReport(t, opts.dagOut)
	if first.Resumed != 0 || len(first.Nodes) != 2 {
		t.Fatalf("first run: %+v, want 2 nodes run and none resumed", first)
	}

	// Re-run over the same directory: both nodes (the experiment and the
	// report) are served from their manifests, so the trainer never runs.
	firstReport := opts.outPath
	opts.outPath = filepath.Join(dir, "report2.txt")
	opts.traceOut = filepath.Join(dir, "trace2.json")
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	if rep := readDagReport(t, opts.dagOut); rep.Resumed != 2 {
		t.Fatalf("resumed %d node(s), want 2", rep.Resumed)
	}
	trace, err := os.ReadFile(opts.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(trace), `"step `) {
		t.Fatal("resumed run re-trained: its trace holds step spans")
	}
	want, err := os.ReadFile(firstReport)
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

// readDagReport decodes a -dag-out file.
func readDagReport(t *testing.T, path string) dagrun.Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep dagrun.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("-dag-out invalid JSON: %v\n%s", err, data)
	}
	return rep
}

// TestMetricsOutRejected: every signal leaves a run through the trace
// or the result records; -metrics-out, like -ops-addr before it, is an
// unknown flag, and so is -critpath-out: obscheck computes the
// critical-path attribution from the trace.
func TestMetricsOutRejected(t *testing.T) {
	for _, flagName := range []string{"-metrics-out", "-ops-addr", "-critpath-out"} {
		var errOut strings.Builder
		_, err := parseOptions([]string{"-run", "fig2", flagName, "x"}, &errOut)
		if err == nil || !strings.Contains(errOut.String(), "flag provided but not defined: "+flagName) {
			t.Fatalf("%s: err=%v stderr=%q, want an unknown-flag error", flagName, err, errOut.String())
		}
	}
	opts, err := parseOptions([]string{"-run", "fig2", "-quick", "-trace-out", "t.json"}, io.Discard)
	if err != nil || opts.id != "fig2" || !opts.quick || opts.traceOut != "t.json" || opts.dagWorkers != 2 {
		t.Fatalf("parseOptions = %+v, %v", opts, err)
	}
}

// TestRunFlagTakesRegistryIDs: -run's help lists every registered
// experiment, and an unknown id is a bad flag value, rejected with the
// usage before anything runs.
func TestRunFlagTakesRegistryIDs(t *testing.T) {
	var help strings.Builder
	if _, err := parseOptions([]string{"-h"}, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	want := "experiment id (" + strings.Join(convmeter.ExperimentIDs(), ", ") + ") or 'all'"
	if !strings.Contains(help.String(), want) {
		t.Fatalf("usage does not list the registry's ids %q:\n%s", want, help.String())
	}
	for _, id := range append(convmeter.ExperimentIDs(), "all") {
		if opts, err := parseOptions([]string{"-run", id}, io.Discard); err != nil || opts.id != id {
			t.Fatalf("-run %s: opts %+v, err %v", id, opts, err)
		}
	}
	var errOut strings.Builder
	_, err := parseOptions([]string{"-run", "nope", "-quick"}, &errOut)
	if err == nil || !strings.Contains(errOut.String(), `invalid value "nope" for flag -run: unknown experiment`) ||
		!strings.Contains(errOut.String(), "Usage of experiments:") {
		t.Fatalf("-run nope: err=%v stderr=%q, want a bad-value error and the usage", err, errOut.String())
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

// TestRunOutputsCreateParentDirs: -out and -csvdir write through
// obs.Export, as every other output file does, so both create missing
// parent directories instead of failing after the whole run.
func TestRunOutputsCreateParentDirs(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		id: "fig8", seed: 1, quick: true,
		outPath: filepath.Join(dir, "out", "new", "report.txt"),
		csvDir:  filepath.Join(dir, "csv", "new"),
	}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(opts.outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "Figure 8") {
		t.Fatalf("-out report has no Figure 8 section:\n%s", report)
	}
	f, err := os.Open(filepath.Join(opts.csvDir, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("fig8.csv does not parse: %v", err)
	}
	if len(rows) < 2 || rows[0][0] != "model" {
		t.Fatalf("fig8.csv = %v, want a model header and data rows", rows)
	}
}

// TestRunDagCrashResume is the CLI-level leg of the crash-resume proof:
// a -dag-crash run dies with ErrDagCrashed after committing its
// upstream manifests, and a plain re-run over the same -dag-dir resumes
// and produces a report byte-identical to an uninterrupted run. A crash
// point that names no node fails before anything runs, and the crash
// report is one error that offers the resume only when -dag-dir is set.
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
	if msg := err.Error(); strings.Count(msg, "dagrun:") != 1 || !strings.Contains(msg, "lomo@boundary") ||
		!strings.HasSuffix(msg, "re-run with the same -dag-dir to resume") {
		t.Fatalf("crash report %q, want one dagrun error naming lomo@boundary, then the resume hint", msg)
	}
	inMemory := base
	inMemory.dagCrash = "lomo@boundary"
	if err := run(inMemory); !errors.Is(err, convmeter.ErrDagCrashed) || strings.Contains(err.Error(), "-dag-dir") {
		t.Fatalf("crash run without -dag-dir: err = %v, want ErrDagCrashed with no resume hint", err)
	}
	ghost := base
	ghost.dagDir = filepath.Join(dir, "ghost")
	ghost.dagCrash = "ghost@boundary"
	if err := run(ghost); err == nil || errors.Is(err, convmeter.ErrDagCrashed) {
		t.Fatalf("crash at an unknown node: err = %v, want an error that is not ErrDagCrashed", err)
	}
	if committed, _ := filepath.Glob(filepath.Join(ghost.dagDir, "*.json")); len(committed) != 0 {
		t.Fatalf("crash at an unknown node committed %v", committed)
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

// TestRunDriftArtefact checks the -drift-out verdict at the CLI level.
// The document is the one stream the chaos run feeds: under the
// slowdown profile it must latch drifting with at least one drift
// event, and under the none profile it must raise none (the detector's
// false-positive guard). fig2 feeds it nothing, so it stays
// calibrating with no pairs.
func TestRunDriftArtefact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  options
		state string
		fed   bool
	}{
		{"slowdown", options{id: "exttrainfaults", seed: 1, quick: true, faultsSeed: 7, faultsProfile: "slowdown"}, "drifting", true},
		{"exttrainfaults", options{id: "exttrainfaults", seed: 1, quick: true, faultsSeed: 7, faultsProfile: "none"}, "ok", true},
		{"fig2", options{id: "fig2", seed: 1, quick: true}, "calibrating", false},
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
			var doc struct {
				State  string `json:"state"`
				Pairs  int    `json:"pairs"`
				Events int    `json:"events"`
			}
			data, err := os.ReadFile(driftPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			if (doc.Pairs > 0) != tc.fed {
				t.Fatalf("drift artefact has %d pairs, want fed = %t: %s", doc.Pairs, tc.fed, data)
			}
			if doc.State != tc.state || (doc.Events > 0) != (tc.state == "drifting") {
				t.Fatalf("drift artefact in state %q with %d events, want state %q: %s", doc.State, doc.Events, tc.state, data)
			}
		})
	}
}
