package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"convmeter/internal/dagrun"
	"convmeter/internal/dagrun/manifest"
	"convmeter/internal/experiments"
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
	drifting := `{"streams":[{"model":"trainreal","phase":"iter","state":"drifting","pairs":10,"events":2}],"events_total":2}`
	clean := `{"streams":[{"model":"trainreal","phase":"iter","state":"ok","pairs":10,"events":0}],"events_total":0}`
	empty := `{"streams":[],"events_total":0}`
	// A stream still in warmup has not armed Page-Hinkley yet.
	warmup := `{"streams":[{"model":"trainreal","phase":"iter","state":"warmup","pairs":3,"events":0}],"events_total":0}`

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
		{"bad-json", `{"streams":`, false, false, true},
		{"missing-total", `{"streams":[]}`, false, false, true},
		{"unknown-state", `{"streams":[{"model":"a","phase":"fwd","state":"panic","pairs":1,"events":0}],"events_total":0}`, false, false, true},
		{"no-model", `{"streams":[{"phase":"fwd","state":"ok","pairs":1,"events":0}],"events_total":0}`, false, false, true},
		{"total-mismatch", `{"streams":[{"model":"a","phase":"fwd","state":"ok","pairs":1,"events":1}],"events_total":3}`, false, false, true},
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

func TestCheckCritpath(t *testing.T) {
	clean := `{"schema":"convmeter/critpath/v1","steps":[
		{"step":0,"total_seconds":0.1,"compute_seconds":0.08,"comm_seconds":0.01,"wait_seconds":0.01,"dominant":"compute","blame":-1,"blame_wait_seconds":0,
		 "workers":[{"worker":0,"compute_seconds":0.04},{"worker":1,"compute_seconds":0.04}]}]}`
	blamed := `{"schema":"convmeter/critpath/v1","steps":[
		{"step":0,"total_seconds":0.1,"compute_seconds":0.03,"comm_seconds":0.01,"wait_seconds":0.06,"dominant":"wait","blame":0,"blame_wait_seconds":0.05,
		 "workers":[{"worker":0,"compute_seconds":0.03,"caused_wait_seconds":0.05},{"worker":1,"wait_seconds":0.06}]}]}`
	empty := `{"schema":"convmeter/critpath/v1","steps":[]}`
	step := func(fields string) string {
		return `{"schema":"convmeter/critpath/v1","steps":[{"step":0,` + fields + `}]}`
	}

	cases := []struct {
		name         string
		doc          string
		requireBlame int
		forbidBlame  bool
		wantErr      bool
	}{
		{"clean-plain", clean, -1, false, false},
		{"clean-forbidden", clean, -1, true, false},
		{"clean-required", clean, 0, false, true},
		{"blamed-required", blamed, 0, false, false},
		{"blamed-required-other", blamed, 1, false, true},
		{"blamed-forbidden", blamed, -1, true, true},
		{"empty-plain", empty, -1, false, false},
		{"empty-forbidden", empty, -1, true, true},
		{"bad-json", `{"schema":`, -1, false, true},
		{"wrong-schema", `{"schema":"v0","steps":[]}`, -1, false, true},
		{"null-steps", `{"schema":"convmeter/critpath/v1"}`, -1, false, true},
		{"missing-blame", step(`"dominant":"compute"`), -1, false, true},
		// Decoded without its key, blame would read as worker 0, which
		// this step lists and may blame.
		{"missing-blame-wait", step(`"dominant":"wait","workers":[{"worker":0}]`), -1, false, true},
		{"negative-worker-seconds", step(`"dominant":"compute","blame":-1,"workers":[{"worker":0,"wait_seconds":-1}]`), -1, false, true},
		{"unknown-dominant", step(`"dominant":"io","blame":-1`), -1, false, true},
		{"negative-duration", step(`"dominant":"compute","blame":-1,"wait_seconds":-1`), -1, false, true},
		{"blame-not-wait", step(`"dominant":"compute","blame":0,"workers":[{"worker":0}]`), -1, false, true},
		{"blamed-worker-absent", step(`"dominant":"wait","blame":2,"workers":[{"worker":0}]`), -1, false, true},
		{"unsorted-workers", step(`"dominant":"compute","blame":-1,"workers":[{"worker":1},{"worker":0}]`), -1, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkCritpath(writeFixture(t, tc.doc), tc.requireBlame, tc.forbidBlame)
			if (err != nil) != tc.wantErr {
				t.Fatalf("checkCritpath err = %v, wantErr = %t", err, tc.wantErr)
			}
		})
	}
}
