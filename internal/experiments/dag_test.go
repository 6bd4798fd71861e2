package experiments

import (
	"errors"
	"reflect"
	"testing"

	"convmeter/internal/dagrun"
)

// TestDagMatchesFlat: the staged DAG path (fit → lomo → report) must
// produce exactly the flat Run("table1") result — same stats, same
// rendered text — or the refactor changed the paper's numbers.
func TestDagMatchesFlat(t *testing.T) {
	cfg := Config{Seed: 5, Quick: true}
	flat, err := Run("table1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, rep, err := RunDAG([]string{"table1"}, cfg, DagConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("DAG returned %d results, want 1", len(results))
	}
	if !reflect.DeepEqual(results[0], flat) {
		t.Fatalf("staged table1 diverged from flat run:\n dag:  %+v\n flat: %+v", results[0], flat)
	}
	for _, id := range []string{"fit", "lomo", "report"} {
		if st := rep.Node(id); st == nil || st.State != dagrun.StateDone {
			t.Fatalf("node %s: %+v", id, st)
		}
	}
}

// crashThenResume kills a DAG run at the given node/point, then
// resumes it over the same directory and returns the resumed results.
func crashThenResume(t *testing.T, ids []string, cfg Config, dir, node, point string) ([]*Result, *dagrun.Report) {
	t.Helper()
	_, rep, err := RunDAG(ids, cfg, DagConfig{Dir: dir, Workers: 2, Crash: node + "@" + point})
	if !errors.Is(err, dagrun.ErrCrashed) {
		t.Fatalf("crash at %s@%s: err = %v, want ErrCrashed", node, point, err)
	}
	if rep == nil || rep.Crashed != node+"@"+point {
		t.Fatalf("crash at %s@%s: blame %+v", node, point, rep)
	}
	results, rep, err := RunDAG(ids, cfg, DagConfig{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("resume after %s@%s: %v", node, point, err)
	}
	return results, rep
}

// sameStats asserts bit-identical Result.Stats (and the full results)
// between a resumed and an uninterrupted run.
func sameStats(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Stats, want[i].Stats) {
			t.Fatalf("%s: %s stats diverged after resume:\n resumed: %#v\n clean:   %#v",
				label, want[i].ID, got[i].Stats, want[i].Stats)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: %s result diverged after resume", label, want[i].ID)
		}
	}
}

// TestDagResumeMatrixTable1 is the acceptance proof on the clean seed:
// kill the fit→lomo→report DAG at every node boundary (and mid-node),
// resume, and require Result.Stats bit-identical to an uninterrupted
// run. Runs under -race via the race target.
func TestDagResumeMatrixTable1(t *testing.T) {
	cfg := Config{Seed: 5, Quick: true}
	ids := []string{"table1"}
	clean, _, err := RunDAG(ids, cfg, DagConfig{Dir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"fit", "lomo", "report"} {
		for _, point := range []string{dagrun.CrashBoundary, dagrun.CrashMid} {
			t.Run(node+"@"+point, func(t *testing.T) {
				resumed, rep := crashThenResume(t, ids, cfg, t.TempDir(), node, point)
				sameStats(t, node+"@"+point, resumed, clean)
				// Committed upstream nodes must be reused, not re-run.
				wantReused := map[string]int{"fit": 0, "lomo": 1, "report": 2}[node]
				if rep.Resumed != wantReused {
					t.Fatalf("resume reused %d nodes, want %d", rep.Resumed, wantReused)
				}
			})
		}
	}
}

// TestDagResumeMatrixChaos is the second acceptance leg: the same
// kill/resume proof over the chaos faults profile, on the experiment
// whose own workload is fault-injected (exttrainfaults) — the crash
// point and the transport fault schedule must compose without
// perturbing each other's determinism.
func TestDagResumeMatrixChaos(t *testing.T) {
	cfg := Config{Seed: 5, Quick: true, FaultsSeed: 11, FaultsProfile: "chaos"}
	ids := []string{"exttrainfaults"}
	clean, _, err := RunDAG(ids, cfg, DagConfig{Dir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"exp:exttrainfaults", "report"} {
		for _, point := range []string{dagrun.CrashBoundary, dagrun.CrashMid} {
			t.Run(node+"@"+point, func(t *testing.T) {
				resumed, _ := crashThenResume(t, ids, cfg, t.TempDir(), node, point)
				sameStats(t, node+"@"+point, resumed, clean)
			})
		}
	}
}

// TestFaultScheduleScopedToItsNode: the fault schedule is part of
// exttrainfaults' identity and of no other node's. Over one directory,
// a changed faults seed or profile re-runs exp:exttrainfaults and the
// report that consumes it, fail-closed on their fingerprints, while
// fig2, which injects no fault, is served from its manifest. The
// profile leg is the clean run: a chaos manifest never resumes it.
func TestFaultScheduleScopedToItsNode(t *testing.T) {
	ids := []string{"fig2", "exttrainfaults"}
	base := Config{Seed: 5, Quick: true, FaultsSeed: 7, FaultsProfile: "chaos"}
	for _, tc := range []struct {
		name   string
		change func(*Config)
	}{
		{"faults seed", func(c *Config) { c.FaultsSeed = 8 }},
		{"faults profile", func(c *Config) { c.FaultsProfile = "none" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, _, err := RunDAG(ids, base, DagConfig{Dir: dir, Workers: 2}); err != nil {
				t.Fatal(err)
			}
			cfg := base
			tc.change(&cfg)
			_, rep, err := RunDAG(ids, cfg, DagConfig{Dir: dir, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Resumed != 1 {
				t.Fatalf("resumed %d node(s), want 1 (exp:fig2)", rep.Resumed)
			}
			if st := rep.Node("exp:fig2"); st.State != dagrun.StateReused || st.FailClose != "" {
				t.Fatalf("exp:fig2 must be reused: %+v", st)
			}
			for _, id := range []string{"exp:exttrainfaults", "report"} {
				st := rep.Node(id)
				if st.State != dagrun.StateDone || st.Attempt != 2 || st.FailClose != dagrun.FailCloseFingerprint {
					t.Fatalf("%s must re-run, fail-closed on its fingerprint: %+v", id, st)
				}
			}
		})
	}
}

// TestDagRejectsUnknown: BuildDAG validates ids like Run does.
func TestDagRejectsUnknown(t *testing.T) {
	if _, err := BuildDAG([]string{"ghost"}, Config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := BuildDAG([]string{"fig2", "fig2"}, Config{}); err == nil {
		t.Fatal("duplicate experiment accepted")
	}
	if _, err := BuildDAG(nil, Config{}); err == nil {
		t.Fatal("empty list accepted")
	}
}
