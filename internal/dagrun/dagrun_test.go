package dagrun

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"convmeter/internal/dagrun/manifest"
	"convmeter/internal/faults"
	"convmeter/internal/obs"
)

// chain builds the canonical fit→lomo→report shape with deterministic
// outputs, so committed manifests are byte-stable across runs.
func chain() []Node {
	return []Node{
		{ID: "fit", Config: "cfg-fit", Run: func(in Inputs) (any, error) {
			return map[string]float64{"coef": 1.25}, nil
		}},
		{ID: "lomo", Deps: []string{"fit"}, Config: "cfg-lomo", Run: func(in Inputs) (any, error) {
			var fit map[string]float64
			if err := in.Decode("fit", &fit); err != nil {
				return nil, err
			}
			return map[string]float64{"mape": fit["coef"] * 10}, nil
		}},
		{ID: "report", Deps: []string{"lomo"}, Config: "cfg-report", Run: func(in Inputs) (any, error) {
			var lomo map[string]float64
			if err := in.Decode("lomo", &lomo); err != nil {
				return nil, err
			}
			return map[string]any{"mape": lomo["mape"], "ok": lomo["mape"] < 50}, nil
		}},
	}
}

func chainConfig(dir string) Config {
	return Config{Dir: dir, Code: "dagrun-test@v1", FaultsSeed: 7, FaultsProfile: "none", Workers: 2}
}

// mustExecute builds and runs a DAG, failing the test on any error.
func mustExecute(t *testing.T, cfg Config, nodes []Node) (*Runner, *Report) {
	t.Helper()
	r, err := New(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return r, rep
}

// outputs collects every node's committed output for bit-identity diffs.
func outputs(r *Runner, nodes []Node) map[string]string {
	out := make(map[string]string, len(nodes))
	for _, n := range nodes {
		if raw, ok := r.Output(n.ID); ok {
			out[n.ID] = string(raw)
		}
	}
	return out
}

// TestExecuteChain: the happy path, durability disabled — outputs flow
// down the chain and every node reports done.
func TestExecuteChain(t *testing.T) {
	r, rep := mustExecute(t, Config{Workers: 2}, chain())
	for _, n := range rep.Nodes {
		if n.State != StateDone {
			t.Fatalf("node %s state %s, want done", n.ID, n.State)
		}
		if n.Attempt != 1 {
			t.Fatalf("node %s attempt %d, want 1", n.ID, n.Attempt)
		}
	}
	raw, ok := r.Output("report")
	if !ok {
		t.Fatal("no report output")
	}
	var rpt map[string]any
	if err := json.Unmarshal(raw, &rpt); err != nil {
		t.Fatal(err)
	}
	if rpt["mape"] != 12.5 || rpt["ok"] != true {
		t.Fatalf("report = %v", rpt)
	}
	if rep.Schema != SchemaV1 {
		t.Fatalf("schema %q, want %q", rep.Schema, SchemaV1)
	}
}

// TestNewRejectsMalformedDAGs: every structural defect is caught before
// anything runs.
func TestNewRejectsMalformedDAGs(t *testing.T) {
	noop := func(in Inputs) (any, error) { return 0, nil }
	cases := map[string][]Node{
		"empty set":   {},
		"empty id":    {{ID: "", Run: noop}},
		"path sep id": {{ID: "a/b", Run: noop}},
		"dot id":      {{ID: "..", Run: noop}},
		"nil run":     {{ID: "a"}},
		"dup id":      {{ID: "a", Run: noop}, {ID: "a", Run: noop}},
		"unknown dep": {{ID: "a", Deps: []string{"ghost"}, Run: noop}},
		"self dep":    {{ID: "a", Deps: []string{"a"}, Run: noop}},
		"dup dep":     {{ID: "a", Run: noop}, {ID: "b", Deps: []string{"a", "a"}, Run: noop}},
		"cycle": {
			{ID: "a", Deps: []string{"c"}, Run: noop},
			{ID: "b", Deps: []string{"a"}, Run: noop},
			{ID: "c", Deps: []string{"b"}, Run: noop},
		},
	}
	for name, nodes := range cases {
		if _, err := New(Config{}, nodes); err == nil {
			t.Errorf("%s: New accepted a malformed DAG", name)
		}
	}
}

func TestExecuteTwice(t *testing.T) {
	r, err := New(Config{}, chain())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(); err == nil {
		t.Fatal("second Execute did not error")
	}
}

// TestParallelOverlap: two independent nodes rendezvous inside their Run
// functions — each refuses to finish until the other has started. The
// test passes only if the executor truly overlaps them; a serial
// executor would deadlock the rendezvous and fail on the timeout error.
func TestParallelOverlap(t *testing.T) {
	aStarted := make(chan struct{})
	bStarted := make(chan struct{})
	meet := func(mine, other chan struct{}) (any, error) {
		close(mine)
		select {
		case <-other:
			return "overlapped", nil
		case <-time.After(10 * time.Second):
			return nil, errors.New("peer never started: nodes did not run in parallel")
		}
	}
	nodes := []Node{
		{ID: "a", Run: func(in Inputs) (any, error) { return meet(aStarted, bStarted) }},
		{ID: "b", Run: func(in Inputs) (any, error) { return meet(bStarted, aStarted) }},
		{ID: "join", Deps: []string{"a", "b"}, Run: func(in Inputs) (any, error) {
			var a, b string
			if err := in.Decode("a", &a); err != nil {
				return nil, err
			}
			if err := in.Decode("b", &b); err != nil {
				return nil, err
			}
			return a + "+" + b, nil
		}},
	}
	_, rep := mustExecute(t, Config{Workers: 2}, nodes)
	if st := rep.Node("join"); st == nil || st.State != StateDone {
		t.Fatalf("join did not complete: %+v", st)
	}
}

// TestWorkerPoolBound: the pool is a hard bound, not advisory — with
// Workers=2, eight independent nodes never observe more than two Runs
// in flight at once.
func TestWorkerPoolBound(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	var nodes []Node
	for _, id := range []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"} {
		nodes = append(nodes, Node{ID: id, Run: func(in Inputs) (any, error) {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return 1, nil
		}})
	}
	mustExecute(t, Config{Workers: 2}, nodes)
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Fatalf("observed %d concurrent Runs, pool bound is 2", peak)
	}
	if peak < 1 {
		t.Fatalf("no Run observed")
	}
}

// TestFailureSkipsDependents: a node error aborts the run; dependents
// are skipped with blame, and Execute surfaces the node's error.
func TestFailureSkipsDependents(t *testing.T) {
	boom := errors.New("boom")
	nodes := []Node{
		{ID: "a", Run: func(in Inputs) (any, error) { return nil, boom }},
		{ID: "b", Deps: []string{"a"}, Run: func(in Inputs) (any, error) { return 1, nil }},
	}
	r, err := New(Config{}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if st := rep.Node("a"); st.State != StateFailed || st.Error == "" {
		t.Fatalf("a: %+v", st)
	}
	if st := rep.Node("b"); st.State != StateSkipped || st.Blame == "" {
		t.Fatalf("b: %+v", st)
	}
}

// TestCrashResumeMatrix is the acceptance proof: for every node and
// every crash point (boundary and mid-node), a seed-scheduled kill
// aborts the run with ErrCrashed, and a resume over the same directory
// completes with every output bit-identical to an uninterrupted run.
func TestCrashResumeMatrix(t *testing.T) {
	clean, _ := mustExecute(t, chainConfig(t.TempDir()), chain())
	want := outputs(clean, chain())
	if len(want) != 3 {
		t.Fatalf("clean run committed %d outputs, want 3", len(want))
	}
	for _, nodeID := range []string{"fit", "lomo", "report"} {
		for _, point := range []string{faults.NodeCrashBoundary, faults.NodeCrashMid} {
			t.Run(nodeID+"@"+point, func(t *testing.T) {
				dir := t.TempDir()
				inj, err := faults.New(7, faults.Profile{NodeCrashes: map[string]string{nodeID: point}}, nil)
				if err != nil {
					t.Fatal(err)
				}
				cfg := chainConfig(dir)
				cfg.Faults = inj
				r, err := New(cfg, chain())
				if err != nil {
					t.Fatal(err)
				}
				rep, err := r.Execute()
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("crashed run err = %v, want ErrCrashed", err)
				}
				if rep.Crashed != nodeID+"@"+point {
					t.Fatalf("blame %q, want %q", rep.Crashed, nodeID+"@"+point)
				}
				if st := rep.Node(nodeID); st.State != StateFailed || st.Blame != "crash@"+point {
					t.Fatalf("crashed node: %+v", st)
				}
				// The crashed node must not have committed a manifest: a
				// mid-node crash loses the work, that is the point.
				if _, err := os.Stat(manifestPath(dir, nodeID)); !os.IsNotExist(err) {
					t.Fatalf("crashed node %s committed a manifest", nodeID)
				}
				// Resume: same run identity, no kill schedule.
				resumed, rrep := mustExecute(t, chainConfig(dir), chain())
				got := outputs(resumed, chain())
				for id, w := range want {
					if got[id] != w {
						t.Fatalf("node %s output diverged after resume:\n resumed: %s\n clean:   %s", id, got[id], w)
					}
				}
				// Everything upstream of the crash was committed and must
				// be served from its manifest, not re-run.
				wantResumed := map[string]int{"fit": 0, "lomo": 1, "report": 2}[nodeID]
				if rrep.Resumed != wantResumed {
					t.Fatalf("resume reused %d nodes, want %d", rrep.Resumed, wantResumed)
				}
			})
		}
	}
}

// TestStaleManifestFailsClosed: editing a node's config and re-running
// over the same directory must re-run that node AND everything
// downstream (the input-hash chain moves), while untouched upstream
// nodes are still reused. Run under the chaos faults identity to match
// the acceptance criteria's second leg.
func TestStaleManifestFailsClosed(t *testing.T) {
	dir := t.TempDir()
	prof, err := faults.ByName("chaos")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(11, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dir: dir, Code: "dagrun-test@v1", FaultsSeed: 11, FaultsProfile: "chaos", Workers: 2, Faults: inj}
	mustExecute(t, cfg, chain())

	o := obs.New()
	stale := chain()
	stale[1].Config = "cfg-lomo-v2" // same path, different config: stale
	cfg2 := cfg
	cfg2.Obs = o
	r, err := New(cfg2, stale)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Node("fit"); st.State != StateReused {
		t.Fatalf("fit state %s, want reused", st.State)
	}
	if st := rep.Node("lomo"); st.State != StateDone || st.Attempt != 2 {
		t.Fatalf("stale lomo must re-run with attempt 2: %+v", st)
	}
	if st := rep.Node("report"); st.State != StateDone || st.Attempt != 2 {
		t.Fatalf("downstream report must re-run: %+v", st)
	}
	if got := o.Counter(obs.Label("convmeter_dag_failclose_total", "reason", "fingerprint"),
		"manifests rejected fail-close, forcing a re-run").Value(); got != 2 {
		t.Fatalf("failclose{fingerprint} = %g, want 2", got)
	}
}

// TestTamperedManifestFailsClosed: a manifest whose bytes were edited on
// disk (valid JSON, wrong content hash) is never trusted — the node
// re-runs. And because the re-run recommits the original content, the
// downstream fingerprint chain heals: report is reused again.
func TestTamperedManifestFailsClosed(t *testing.T) {
	dir := t.TempDir()
	mustExecute(t, chainConfig(dir), chain())

	path := manifestPath(dir, "lomo")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"mape": 12.5`), []byte(`"mape": 1.5`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatalf("tamper target not found in manifest:\n%s", data)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	cfg := chainConfig(dir)
	cfg.Obs = o
	r, rep := mustExecute(t, cfg, chain())
	if st := rep.Node("lomo"); st.State != StateDone {
		t.Fatalf("tampered lomo state %s, want done (re-run)", st.State)
	}
	if st := rep.Node("fit"); st.State != StateReused {
		t.Fatalf("fit state %s, want reused", st.State)
	}
	if st := rep.Node("report"); st.State != StateReused {
		t.Fatalf("report state %s, want reused (chain healed)", st.State)
	}
	if got := o.Counter(obs.Label("convmeter_dag_failclose_total", "reason", "corrupt"),
		"manifests rejected fail-close, forcing a re-run").Value(); got != 1 {
		t.Fatalf("failclose{corrupt} = %g, want 1", got)
	}
	raw, _ := r.Output("lomo")
	var lomo map[string]float64
	if err := json.Unmarshal(raw, &lomo); err != nil {
		t.Fatal(err)
	}
	if lomo["mape"] != 12.5 {
		t.Fatalf("re-run output %v, want the true value 12.5", lomo)
	}
}

// TestManifestOnDiskVerifies: every committed manifest parses fail-close
// and chains input hashes to its dependencies' manifests.
func TestManifestOnDiskVerifies(t *testing.T) {
	dir := t.TempDir()
	mustExecute(t, chainConfig(dir), chain())
	hashes := map[string]string{}
	for _, id := range []string{"fit", "lomo", "report"} {
		data, err := os.ReadFile(manifestPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		m, err := manifest.Parse(data)
		if err != nil {
			t.Fatalf("manifest %s: %v", id, err)
		}
		if m.Node != id {
			t.Fatalf("manifest %s names node %s", id, m.Node)
		}
		for dep, h := range m.Inputs {
			if hashes[dep] != h {
				t.Fatalf("manifest %s input %s hash %s, dependency committed %s", id, dep, h, hashes[dep])
			}
		}
		hashes[id] = m.Hash
	}
}

// TestMetricsAndLiveReport: the convmeter_dag_* gauges land on their
// terminal values and the returned report writes a parseable audit
// trail.
func TestMetricsAndLiveReport(t *testing.T) {
	o := obs.New()
	cfg := chainConfig(t.TempDir())
	cfg.Obs = o
	_, final := mustExecute(t, cfg, chain())

	if v := o.Gauge(obs.Label("convmeter_dag_nodes", "state", StateDone),
		"DAG nodes by execution state").Value(); v != 3 {
		t.Fatalf("nodes{done} = %g, want 3", v)
	}
	if v := o.Gauge(obs.Label("convmeter_dag_nodes", "state", StatePending),
		"DAG nodes by execution state").Value(); v != 0 {
		t.Fatalf("nodes{pending} = %g, want 0", v)
	}

	var buf bytes.Buffer
	if err := final.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("audit trail does not parse: %v", err)
	}
	if rep.Schema != SchemaV1 || len(rep.Nodes) != 3 {
		t.Fatalf("report: %+v", rep)
	}
	for _, n := range rep.Nodes {
		if n.State == StateDone && n.Manifest == "" {
			t.Fatalf("done node %s has no manifest hash", n.ID)
		}
	}
}

// TestNoGoroutineLeaks: after Execute returns — complete, failed, or
// crashed — every worker goroutine is gone.
func TestNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// A wider DAG than workers, so the pool queue is exercised.
	noop := func(in Inputs) (any, error) { return 1, nil }
	nodes := []Node{
		{ID: "a", Run: noop},
		{ID: "b", Run: noop},
		{ID: "c", Run: noop},
		{ID: "d", Deps: []string{"a", "b"}, Run: noop},
		{ID: "e", Deps: []string{"b", "c"}, Run: noop},
		{ID: "f", Deps: []string{"d", "e"}, Run: noop},
	}
	mustExecute(t, Config{Workers: 2}, nodes)

	inj, err := faults.New(3, faults.Profile{NodeCrashes: map[string]string{"b": faults.NodeCrashMid}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Workers: 2, Faults: inj}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
