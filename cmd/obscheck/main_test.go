package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"convmeter/internal/dagrun"
	"convmeter/internal/dagrun/manifest"
	"convmeter/internal/experiments"
	"convmeter/internal/graph"
	"convmeter/internal/obs"
	"convmeter/internal/obs/critpath"
	"convmeter/internal/train"
)

// writeFixture drops a JSON artefact fixture and returns its path.
func writeFixture(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckDrift(t *testing.T) {
	drifting := `{"state":"drifting","pairs":10,"events":2,"kappa":1.2,"residual_mean":0.4,"residual_std":0.3}`
	clean := `{"state":"ok","pairs":10,"events":0,"kappa":1.2,"residual_mean":0.01,"residual_std":0.05}`
	// A stream nothing fed, as -drift-out writes for fig2.
	empty := `{"state":"calibrating","pairs":0,"events":0,"kappa":1,"residual_mean":0,"residual_std":0}`
	// A stream still in warmup has not armed Page-Hinkley yet.
	warmup := `{"state":"warmup","pairs":3,"events":0}`

	cases := []struct {
		name                      string
		doc                       string
		requireDrift, forbidDrift bool
		wantErr                   bool
	}{
		{"drifting-plain", drifting, false, false, false},
		{"drifting-required", drifting, true, false, false},
		{"drifting-forbidden", drifting, false, true, true},
		{"clean-plain", clean, false, false, false},
		{"clean-required", clean, true, false, true},
		{"clean-forbidden", clean, false, true, false},
		{"empty-forbidden", empty, false, true, true},
		{"empty-required", empty, true, false, true},
		{"warmup-plain", warmup, false, false, false},
		{"warmup-forbidden", warmup, false, true, true},
		{"bad-json", `{"state":`, false, false, true},
		{"missing-total", `{"state":"ok","pairs":10}`, false, false, true},
		{"unknown-state", `{"state":"panic","pairs":1,"events":0}`, false, false, true},
		// The retired multi-stream document keeps its state inside a
		// streams array.
		{"no-state", `{"streams":[{"model":"trainreal","phase":"iter","state":"ok","pairs":10,"events":0}],"events_total":0}`, false, false, true},
		{"negative-pairs", `{"state":"calibrating","pairs":-1,"events":0}`, false, false, true},
		// An event latches the stream drifting, and nothing else does.
		{"total-mismatch", `{"state":"ok","pairs":10,"events":3}`, false, false, true},
		{"drifting-without-event", `{"state":"drifting","pairs":10,"events":0}`, false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkDrift(writeFixture(t, tc.doc), tc.requireDrift, tc.forbidDrift)
			if (err != nil) != tc.wantErr {
				t.Fatalf("checkDrift err = %v, wantErr = %t", err, tc.wantErr)
			}
		})
	}
}

// realManifestDir runs a small DAG with a durable directory so the
// fixture is exactly what experiments -dag-dir commits, not a
// hand-rolled imitation that could drift from the writer.
func realManifestDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	r, err := dagrun.New(dagrun.Config{Dir: dir, Code: "obscheck-test@v1", Workers: 2}, []dagrun.Node{
		{ID: "fit", Run: func(dagrun.Inputs) (any, error) { return map[string]float64{"coef": 1.5}, nil }},
		{ID: "report", Deps: []string{"fit"}, Run: func(in dagrun.Inputs) (any, error) {
			var fit map[string]float64
			if err := in.Decode("fit", &fit); err != nil {
				return nil, err
			}
			return "coef " + "ok", nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// mutateManifest rewrites one top-level field of dir/node.json.
func mutateManifest(t *testing.T, dir, node string, mutate func(map[string]json.RawMessage)) {
	t.Helper()
	path := filepath.Join(dir, node+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	mutate(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// resealManifest edits dir/node.json's fields and seals it again, so
// its content hash verifies and only the checks after parsing can
// reject it.
func resealManifest(t *testing.T, dir, node string, edit func(*manifest.Manifest)) {
	t.Helper()
	path := filepath.Join(dir, node+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	edit(m)
	out, err := manifest.Seal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckManifests(t *testing.T) {
	t.Run("real-run-passes", func(t *testing.T) {
		if err := checkManifests(realManifestDir(t)); err != nil {
			t.Fatalf("real dag run rejected: %v", err)
		}
	})
	t.Run("empty-dir", func(t *testing.T) {
		if err := checkManifests(t.TempDir()); err == nil {
			t.Fatal("empty directory accepted; a run that committed nothing has nothing to audit")
		}
	})
	t.Run("missing-dir", func(t *testing.T) {
		if err := checkManifests(filepath.Join(t.TempDir(), "nope")); err == nil {
			t.Fatal("nonexistent directory accepted")
		}
	})
	t.Run("not-json", func(t *testing.T) {
		dir := realManifestDir(t)
		if err := os.WriteFile(filepath.Join(dir, "fit.json"), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkManifests(dir); err == nil {
			t.Fatal("truncated manifest accepted")
		}
	})
	zeros := strings.Repeat("0", 64)
	// raw edits the bytes after sealing; sealed edits fields and
	// reseals, so the content hash verifies.
	mutations := []struct {
		name   string
		node   string
		raw    func(map[string]json.RawMessage)
		sealed func(*manifest.Manifest)
		want   string
	}{
		{name: "wrong-schema", node: "fit", raw: func(d map[string]json.RawMessage) { d["schema"] = json.RawMessage(`"v0"`) }, want: "schema"},
		{name: "short-fingerprint", node: "fit", raw: func(d map[string]json.RawMessage) { d["fingerprint"] = json.RawMessage(`"abc"`) }, want: "fingerprint"},
		{name: "upper-hash", node: "fit", raw: func(d map[string]json.RawMessage) {
			d["hash"] = json.RawMessage(`"` + strings.Repeat("A", 64) + `"`)
		}, want: "hash"},
		{name: "zero-attempt", node: "fit", raw: func(d map[string]json.RawMessage) { d["attempt"] = json.RawMessage(`0`) }, want: "attempt"},
		{name: "no-output", node: "fit", raw: func(d map[string]json.RawMessage) { delete(d, "output") }, want: "output"},
		{name: "malformed-input-hash", node: "report", raw: func(d map[string]json.RawMessage) {
			d["inputs"] = json.RawMessage(`{"fit":"xyz"}`)
		}, want: "input hash"},
		// An output edited after sealing no longer matches the stored
		// hash; dagrun re-runs such a node, so obscheck must reject it.
		{name: "edited-output", node: "fit", raw: func(d map[string]json.RawMessage) {
			d["output"] = json.RawMessage(`{"coef":2.5}`)
		}, want: "recomputed"},
		{name: "node-mismatch", node: "fit", sealed: func(m *manifest.Manifest) { m.Node = "other" }, want: "stem"},
		{name: "stale-input-hash", node: "report", sealed: func(m *manifest.Manifest) {
			m.Inputs = map[string]string{"fit": zeros}
		}, want: "stale or tampered"},
		{name: "dangling-input", node: "report", sealed: func(m *manifest.Manifest) {
			m.Inputs = map[string]string{"ghost": zeros}
		}, want: "chain is broken"},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			dir := realManifestDir(t)
			if tc.sealed != nil {
				resealManifest(t, dir, tc.node, tc.sealed)
			} else {
				mutateManifest(t, dir, tc.node, tc.raw)
			}
			err := checkManifests(dir)
			if err == nil {
				t.Fatal("mutated manifest accepted")
			}
			// The temp dir is named after the subtest, so match the
			// message without it.
			if msg := strings.ReplaceAll(err.Error(), dir, ""); !strings.Contains(msg, tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	t.Run("cycle", func(t *testing.T) {
		dir := realManifestDir(t)
		// Point fit's inputs back at report's committed hash and reseal.
		// fit's hash changes with its inputs, so report's record of it
		// goes stale: closing the cycle would need a hash fixed point.
		data, err := os.ReadFile(filepath.Join(dir, "report.json"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := manifest.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		resealManifest(t, dir, "fit", func(m *manifest.Manifest) {
			m.Inputs = map[string]string{"report": rep.Hash}
		})
		err = checkManifests(dir)
		if err == nil {
			t.Fatal("input cycle accepted")
		}
		if msg := strings.ReplaceAll(err.Error(), dir, ""); !strings.Contains(msg, "report recorded input hash") ||
			!strings.Contains(msg, "stale or tampered") {
			t.Fatalf("cycle not rejected by the chain check: %v", err)
		}
	})
}

// chaosRunDir runs exttrainfaults -quick under the named fault profile
// with a -dag-dir run directory, as `make chaos` does, and returns the
// directory.
func chaosRunDir(t *testing.T, profile string) string {
	t.Helper()
	dir := t.TempDir()
	cfg := experiments.Config{Seed: 1, Quick: true, FaultsSeed: 7, FaultsProfile: profile}
	if _, _, err := experiments.RunDAG([]string{"exttrainfaults"}, cfg, experiments.DagConfig{Dir: dir, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCheckFaults: -require-faults passes a chaos run's directory and
// fails closed on a directory whose exttrainfaults result counts no
// fault (a -faults-profile none run) or that holds no exttrainfaults
// manifest at all.
func TestCheckFaults(t *testing.T) {
	chaos := chaosRunDir(t, "chaos")
	if err := checkManifests(chaos); err != nil {
		t.Fatal(err)
	}
	if err := checkFaults(chaos); err != nil {
		t.Fatalf("chaos run rejected: %v", err)
	}
	clean := chaosRunDir(t, "none")
	if err := checkManifests(clean); err != nil {
		t.Fatal(err)
	}
	if err := checkFaults(clean); err == nil || !strings.Contains(err.Error(), "injected nothing") {
		t.Fatalf("a -faults-profile none run passed -require-faults: %v", err)
	}
	if err := checkFaults(realManifestDir(t)); err == nil || !strings.Contains(err.Error(), "no exp:exttrainfaults manifest") {
		t.Fatalf("a run without exttrainfaults passed -require-faults: %v", err)
	}
}

// TestCheckTrace: the span-graph checks reject a duplicate span id, an
// unresolvable parent, a negative duration, a duration event without
// ts and a causal link that travels back in time beyond the scheduling
// slack, and tolerate a dangling link and events without span args.
func TestCheckTrace(t *testing.T) {
	doc := func(events ...string) string {
		return `{"traceEvents":[` + strings.Join(events, ",") + `]}`
	}
	span := func(id, parent, link int, ts, dur float64) string {
		return fmt.Sprintf(`{"name":"s%d","ph":"X","ts":%g,"dur":%g,"args":{"id":%d,"parent":%d,"link":%d,"worker":0}}`,
			id, ts, dur, id, parent, link)
	}
	cases := []struct {
		name, doc string
		wantErr   bool
	}{
		{"well-formed", doc(span(1, 0, 0, 0, 100), span(2, 1, 0, 10, 50)), false},
		{"no-span-args", doc(`{"name":"forward","ph":"X","ts":0,"dur":1}`, `{"name":"thread_name","ph":"M","args":{"name":"compute"}}`), false},
		{"dangling-link", doc(span(1, 0, 9, 0, 100)), false},
		{"duplicate-id", doc(span(1, 0, 0, 0, 100), span(1, 0, 0, 0, 50)), true},
		{"unresolvable-parent", doc(span(2, 1, 0, 0, 100)), true},
		{"negative-duration", doc(span(1, 0, 0, 0, -1)), true},
		{"no-ts", doc(`{"name":"s","ph":"X","dur":1}`), true},
		{"time-travel", doc(span(1, 0, 0, 0, 100+2*linkTolerance), span(2, 0, 1, 0, 100)), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := checkTrace(writeFixture(t, tc.doc))
			if (err != nil) != tc.wantErr {
				t.Fatalf("checkTrace err = %v, wantErr = %t", err, tc.wantErr)
			}
		})
	}
}

// stepTrace records steps training steps of three workers with the
// tracer on a hand-driven clock, laid out as the trainer records them:
// each worker's compute, then its ring send and a wait linked to its
// predecessor's send. Worker 0 computes for slow, the others for 10ms.
// It writes the trace as -trace-out does and returns the file's path.
func stepTrace(t *testing.T, steps int, slow time.Duration) string {
	t.Helper()
	const ms = time.Millisecond
	var now time.Duration
	o := &obs.Obs{Trc: obs.NewTracerWithClock(func() time.Duration { return now })}
	exp := o.Start("experiment:exttrainfaults")
	for s := 0; s < steps; s++ {
		step := o.WithSpan(exp).Start(fmt.Sprintf("step %d", s))
		var compute, send, wait [3]*obs.Span
		worker := func(w int) *obs.Obs { return o.WithSpan(step).WithWorker(w) }
		for w := range compute {
			compute[w] = worker(w).Start("compute")
		}
		now += 10 * ms
		compute[1].End()
		compute[2].End()
		now += slow - 10*ms
		compute[0].End()
		for w := range send {
			send[w] = worker(w).Start("ar.send")
		}
		now += ms
		for w := range send {
			send[w].End()
			wait[w] = worker(w).Start("ar.wait")
		}
		for w := range wait {
			wait[w].LinkTo(send[(w+2)%3].Context())
		}
		now += 4 * ms
		for w := range wait {
			wait[w].End()
		}
		step.End()
	}
	exp.End()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := obs.Export(path, o.Trc.WriteChromeTrace); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkTraceBlame judges a trace file as obscheck -trace does.
func checkTraceBlame(path string, requireBlame int, forbidBlame bool) error {
	spans, err := checkTrace(path)
	if err != nil {
		return err
	}
	return checkBlame(path, critpath.Analyze(spans), requireBlame, forbidBlame)
}

// TestCheckCritpath: the blame gates judge the steps critpath.Analyze
// attributes from a written trace, and critpath.Validate rejects an
// attribution that is inconsistent in itself. want is a substring of
// the expected error, empty when the check must pass.
func TestCheckCritpath(t *testing.T) {
	clean := stepTrace(t, 2, 10*time.Millisecond)
	blamed := stepTrace(t, 2, 100*time.Millisecond)
	empty := stepTrace(t, 0, 0)
	cases := []struct {
		name         string
		trace        string
		requireBlame int
		forbidBlame  bool
		want         string
	}{
		{"clean-plain", clean, -1, false, ""},
		{"clean-forbidden", clean, -1, true, ""},
		{"clean-required", clean, 0, false, "no step blames worker 0"},
		{"blamed-required", blamed, 0, false, ""},
		{"blamed-required-other", blamed, 1, false, "no step blames worker 1"},
		// Both steps blame worker 0: the count is of steps, not workers.
		{"blamed-forbidden", blamed, -1, true, ": 2 blamed step(s)"},
		{"empty-plain", empty, -1, false, ""},
		{"empty-forbidden", empty, -1, true, "no analyzed steps"},
		{"bad-json", writeFixture(t, `{"traceEvents":`), -1, false, "invalid trace JSON"},
		// A retired critpath/v1 report is not a trace.
		{"wrong-schema", writeFixture(t, `{"schema":"convmeter/critpath/v1","steps":[]}`), -1, false, "traceEvents missing"},
		// A null event array is not a trace without steps.
		{"null-steps", writeFixture(t, `{"traceEvents":null}`), -1, false, "traceEvents missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkTraceBlame(tc.trace, tc.requireBlame, tc.forbidBlame)
			if (err != nil) != (tc.want != "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}

	// Analyze never writes these; Validate must still reject them.
	invalid := []struct {
		name string
		att  critpath.StepAttribution
		want string
	}{
		{"negative-worker-seconds", critpath.StepAttribution{Dominant: "compute", Blame: -1, Workers: []critpath.WorkerAttribution{{Worker: 0, Wait: -1}}}, "worker 0: wait_seconds"},
		{"unknown-dominant", critpath.StepAttribution{Dominant: "io", Blame: -1}, `dominant "io"`},
		{"negative-duration", critpath.StepAttribution{Dominant: "compute", Blame: -1, Wait: -1}, "step 0: wait_seconds"},
		{"blame-not-wait", critpath.StepAttribution{Dominant: "compute", Blame: 0, Workers: []critpath.WorkerAttribution{{Worker: 0}}}, "blame 0 with dominant"},
		{"blamed-worker-absent", critpath.StepAttribution{Dominant: "wait", Blame: 2, Workers: []critpath.WorkerAttribution{{Worker: 0}}}, "blamed worker 2 not in attribution"},
		{"unsorted-workers", critpath.StepAttribution{Dominant: "compute", Blame: -1, Workers: []critpath.WorkerAttribution{{Worker: 1}, {Worker: 0}}}, "workers not sorted"},
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			err := checkBlame("trace.json", []critpath.StepAttribution{tc.att}, -1, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestCheckTraceRoundTrip: checkTrace reads back from a written trace
// the tracer's own span records, less the track and the linked span's
// trace id, which the trace does not carry, and they give the same
// critical-path analysis, for a straggler chaos run over TCP and a
// clean run over the channel ring.
func TestCheckTraceRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record func(o *obs.Obs) error // trains 12 steps under o
	}{
		{"exttrainfaults", func(o *obs.Obs) error {
			cfg := experiments.Config{Seed: 1, Quick: true, FaultsSeed: 7, FaultsProfile: "slowdown", Obs: o}
			_, _, err := experiments.RunDAG([]string{"exttrainfaults"}, cfg, experiments.DagConfig{Workers: 2})
			return err
		}},
		{"chan-ring", func(o *obs.Obs) error {
			b, x := graph.NewBuilder("roundtrip", graph.Shape{C: 2, H: 8, W: 8})
			x = b.Conv(x, "conv", 4, 3, 1, 1)
			x = b.ReLU(x, "relu")
			x = b.GlobalAvgPool(x, "gap")
			x = b.Flatten(x, "flat")
			x = b.Linear(x, "fc", 3)
			g, err := b.Build()
			if err != nil {
				return err
			}
			task, err := train.NewPrototypeTask(g, 3, 0.3, 1)
			if err != nil {
				return err
			}
			cfg := train.Config{Workers: 2, LR: 0.1, Seed: 1, Obs: o, Transport: train.TransportChan}
			_, err = train.DataParallel(g, cfg, 12, task.Source(4))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			if err := tc.record(o); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := obs.Export(path, o.Trc.WriteChromeTrace); err != nil {
				t.Fatal(err)
			}
			spans, err := checkTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			recs := o.Trc.Spans()
			for i := range recs {
				recs[i].Track, recs[i].Link.Trace = 0, 0
			}
			byID := func(s []obs.SpanRecord) {
				sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
			}
			byID(spans)
			byID(recs)
			if !reflect.DeepEqual(spans, recs) {
				t.Fatal("span records read back from the trace differ from the tracer's")
			}
			got, want := critpath.Analyze(spans), critpath.Analyze(o.Trc.Spans())
			if len(want) != 12 {
				t.Fatalf("%d steps analyzed from the tracer, want the run's 12", len(want))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("analysis of the written trace differs from the tracer's:\n%+v\nwant:\n%+v", got, want)
			}
		})
	}
}

// TestParseOptions: -require-blame takes a worker id or -1 (disabled);
// any value below -1 is a bad flag value, rejected with the usage, so a
// typo cannot turn the straggler gate off. The flag combinations that
// check nothing or contradict each other are refused too.
func TestParseOptions(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want options
	}{
		{[]string{"-trace", "t.json"}, options{trace: "t.json", requireBlame: -1}},
		{[]string{"-trace", "t.json", "-require-blame", "0"}, options{trace: "t.json", requireBlame: 0}},
		{[]string{"-trace", "t.json", "-require-blame", "-1", "-forbid-blame"}, options{trace: "t.json", requireBlame: -1, forbidBlame: true}},
		{[]string{"-manifest", "d", "-require-faults"}, options{manifestDir: "d", requireFaults: true, requireBlame: -1}},
		{[]string{"-drift", "d.json", "-forbid-drift"}, options{drift: "d.json", forbidDrift: true, requireBlame: -1}},
	} {
		got, err := parseOptions(tc.args, io.Discard)
		if err != nil || got != tc.want {
			t.Fatalf("%q: options %+v, err %v; want %+v", tc.args, got, err, tc.want)
		}
	}
	for _, v := range []string{"-2", "-100"} {
		var errOut strings.Builder
		_, err := parseOptions([]string{"-trace", "t.json", "-require-blame", v}, &errOut)
		if err == nil || !strings.Contains(errOut.String(), `invalid value "`+v+`" for flag -require-blame`) ||
			!strings.Contains(errOut.String(), "Usage of obscheck:") {
			t.Fatalf("-require-blame %s: err=%v stderr=%q, want a bad-value error and the usage", v, err, errOut.String())
		}
	}
	for _, args := range [][]string{
		{},
		{"-require-faults", "-trace", "t.json"},
		{"-forbid-drift", "-trace", "t.json"},
		{"-drift", "d.json", "-require-drift", "-forbid-drift"},
		{"-require-blame", "0", "-drift", "d.json"},
		{"-trace", "t.json", "-require-blame", "0", "-forbid-blame"},
	} {
		var errOut strings.Builder
		if _, err := parseOptions(args, &errOut); err == nil || !strings.HasPrefix(errOut.String(), "obscheck: ") {
			t.Fatalf("%q: err=%v stderr=%q, want a refusal", args, err, errOut.String())
		}
	}
	if _, err := parseOptions([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
}
