// Command obscheck validates telemetry artefacts produced by the
// --metrics-out/--trace-out/--drift-out flags: the metrics file must be
// parseable Prometheus text exposition containing at least
// one convmeter_ sample, the trace file must be a Chrome trace-event
// JSON document with a traceEvents array, and the drift file must be a
// well-formed drift-monitor snapshot (optionally asserting that drift
// was, or was not, detected). It also validates critical-path
// attribution reports (-critpath: schema, finite non-negative
// durations, legal dominant phases, blame consistency — optionally
// asserting that a specific worker was, or no worker was, blamed) and
// durable DAG run directories written by experiments -dag-dir
// (-manifest: every manifest parses and its content hash verifies, as
// dagrun demands before a resume trusts it, and input hashes resolve
// to committed manifests). The clean-run gates (-forbid-drift,
// -forbid-blame) also require proof that something watched: an armed
// drift stream, an analyzed step.
// Trace validation additionally checks span-graph well-formedness when
// events carry span args: unique ids, resolvable parents, non-negative
// durations, and no cross-worker time-travel through causal links
// beyond the scheduling tolerance. CI's obs-smoke (metrics, trace),
// chaos (metrics), drift-smoke (drift, critpath, trace) and dag-smoke
// (manifest) targets run it against real artefacts so a formatting
// regression fails the build rather than silently producing files
// Grafana or Perfetto reject.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"convmeter/internal/dagrun/manifest"
	"convmeter/internal/obs/critpath"
)

func main() {
	metrics := flag.String("metrics", "", "Prometheus text metrics file to validate (from -metrics-out)")
	trace := flag.String("trace", "", "Chrome trace-event JSON file to validate")
	drift := flag.String("drift", "", "drift-monitor JSON snapshot to validate (from -drift-out)")
	critpathPath := flag.String("critpath", "", "critical-path attribution report JSON to validate (from -critpath-out)")
	manifestDir := flag.String("manifest", "", "DAG run directory to validate (from experiments -dag-dir): every manifest parses and its content hash verifies, and input hashes resolve to committed manifests")
	requireFaults := flag.Bool("require-faults", false, "additionally require a convmeter_faults_injected_total sample with value > 0 (chaos-run validation)")
	requireDrift := flag.Bool("require-drift", false, "additionally require at least one drift event and a drifting stream in the -drift snapshot (slowdown-run validation)")
	forbidDrift := flag.Bool("forbid-drift", false, "additionally require zero drift events and at least one armed (state ok) stream in the -drift snapshot (clean-run validation)")
	requireBlame := flag.Int("require-blame", -1, "additionally require at least one -critpath step blaming this worker (straggler-run validation); -1 disables")
	forbidBlame := flag.Bool("forbid-blame", false, "additionally require zero blamed steps and at least one analyzed step in the -critpath report (clean-run validation)")
	flag.Parse()
	if *metrics == "" && *trace == "" && *drift == "" && *critpathPath == "" && *manifestDir == "" {
		fmt.Fprintln(os.Stderr, "obscheck: nothing to check (pass -metrics, -trace, -drift, -critpath and/or -manifest)")
		os.Exit(2)
	}
	if *requireFaults && *metrics == "" {
		fmt.Fprintln(os.Stderr, "obscheck: -require-faults needs -metrics")
		os.Exit(2)
	}
	if (*requireDrift || *forbidDrift) && *drift == "" {
		fmt.Fprintln(os.Stderr, "obscheck: -require-drift/-forbid-drift need -drift")
		os.Exit(2)
	}
	if *requireDrift && *forbidDrift {
		fmt.Fprintln(os.Stderr, "obscheck: -require-drift and -forbid-drift are mutually exclusive")
		os.Exit(2)
	}
	if (*requireBlame >= 0 || *forbidBlame) && *critpathPath == "" {
		fmt.Fprintln(os.Stderr, "obscheck: -require-blame/-forbid-blame need -critpath")
		os.Exit(2)
	}
	if *requireBlame >= 0 && *forbidBlame {
		fmt.Fprintln(os.Stderr, "obscheck: -require-blame and -forbid-blame are mutually exclusive")
		os.Exit(2)
	}
	if *metrics != "" {
		if err := checkMetrics(*metrics, *requireFaults); err != nil {
			fmt.Fprintln(os.Stderr, "obscheck:", err)
			os.Exit(1)
		}
		fmt.Printf("obscheck: %s ok\n", *metrics)
	}
	if *trace != "" {
		if err := checkTrace(*trace); err != nil {
			fmt.Fprintln(os.Stderr, "obscheck:", err)
			os.Exit(1)
		}
		fmt.Printf("obscheck: %s ok\n", *trace)
	}
	if *drift != "" {
		if err := checkDrift(*drift, *requireDrift, *forbidDrift); err != nil {
			fmt.Fprintln(os.Stderr, "obscheck:", err)
			os.Exit(1)
		}
		fmt.Printf("obscheck: %s ok\n", *drift)
	}
	if *critpathPath != "" {
		if err := checkCritpath(*critpathPath, *requireBlame, *forbidBlame); err != nil {
			fmt.Fprintln(os.Stderr, "obscheck:", err)
			os.Exit(1)
		}
		fmt.Printf("obscheck: %s ok\n", *critpathPath)
	}
	if *manifestDir != "" {
		if err := checkManifests(*manifestDir); err != nil {
			fmt.Fprintln(os.Stderr, "obscheck:", err)
			os.Exit(1)
		}
		fmt.Printf("obscheck: %s ok\n", *manifestDir)
	}
}

// checkManifests validates a DAG run directory: every *.json file is a
// manifest that manifest.Parse accepts — the same check dagrun makes
// before it trusts one on resume: schema tag, well-formed fingerprint
// and hashes, attempt >= 1, valid JSON output, and a stored hash equal
// to the recomputed content hash — and that names its own file stem as
// its node. Every input hash must resolve to a committed manifest in the
// same directory whose hash matches (the content-address chain is
// unbroken). Verified hashes leave no room for an input cycle: one
// would need a SHA-256 fixed point, so the chain check rejects it. An
// empty directory fails: a run that committed nothing has no resume to
// audit.
func checkManifests(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	mans := map[string]*manifest.Manifest{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		m, err := manifest.Parse(data)
		if err != nil {
			return fmt.Errorf("%s/%s: %v", dir, name, err)
		}
		if m.Node+".json" != name {
			return fmt.Errorf("%s/%s: names node %q, want the file's own stem", dir, name, m.Node)
		}
		mans[m.Node] = m
	}
	if len(mans) == 0 {
		return fmt.Errorf("%s: no manifests (*.json) found", dir)
	}
	nodes := make([]string, 0, len(mans))
	for n := range mans {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		deps := make([]string, 0, len(mans[n].Inputs))
		for d := range mans[n].Inputs {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		for _, d := range deps {
			h := mans[n].Inputs[d]
			dep, ok := mans[d]
			if !ok {
				return fmt.Errorf("%s: manifest %s consumes input %s, but no manifest for it exists — the chain is broken", dir, n, d)
			}
			if dep.Hash != h {
				return fmt.Errorf("%s: manifest %s recorded input hash %s for %s, but its manifest's hash is %s — stale or tampered", dir, n, h, d, dep.Hash)
			}
		}
	}
	return nil
}

// checkCritpath validates a critical-path attribution report: the
// schema tag, a steps array, a blame key on every step, and
// critpath.Validate on each step (finite non-negative durations, legal
// dominant phases, blame consistency, sorted workers). With
// requireBlame >= 0 it demands at least one step blaming that worker (a
// straggler run must have been attributed); with forbidBlame it demands
// no blamed steps at all, and at least one analyzed step — an empty
// report watched nothing, so its silence proves nothing.
func checkCritpath(path string, requireBlame int, forbidBlame bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Schema string `json:"schema"`
		Steps  []struct {
			critpath.StepAttribution
			// Blame shadows the embedded field, so a step without the
			// key decodes as nil instead of as a blame on worker 0.
			Blame *int `json:"blame"`
		} `json:"steps"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid critpath JSON: %v", path, err)
	}
	if doc.Schema != critpath.SchemaV1 {
		return fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, critpath.SchemaV1)
	}
	if doc.Steps == nil {
		return fmt.Errorf("%s: steps missing or null", path)
	}
	blamed := map[int]int{} // worker -> blamed-step count
	for _, st := range doc.Steps {
		if st.Blame == nil {
			return fmt.Errorf("%s: step %d: blame missing", path, st.Step)
		}
		st.StepAttribution.Blame = *st.Blame
		if err := critpath.Validate(st.StepAttribution); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if b := *st.Blame; b >= 0 {
			blamed[b]++
		}
	}
	if forbidBlame && len(blamed) > 0 {
		return fmt.Errorf("%s: %d blamed step(s) on a clean run (false positive)", path, len(blamed))
	}
	if forbidBlame && len(doc.Steps) == 0 {
		return fmt.Errorf("%s: no analyzed steps — the clean run's silence proves nothing", path)
	}
	if requireBlame >= 0 {
		if blamed[requireBlame] == 0 {
			return fmt.Errorf("%s: no step blames worker %d (blamed: %v) — the straggler was missed", path, requireBlame, blamed)
		}
		for w := range blamed {
			if w != requireBlame {
				return fmt.Errorf("%s: worker %d blamed alongside expected straggler %d", path, w, requireBlame)
			}
		}
	}
	return nil
}

// faultsSeries is the counter family a chaos run must have populated.
const faultsSeries = "convmeter_faults_injected_total"

// checkMetrics validates the exposition format line by line and requires
// at least one convmeter_-prefixed sample with a finite value. With
// requireFaults it additionally demands a positive fault-injection
// counter — the proof that a chaos run actually injected something.
func checkMetrics(path string, requireFaults bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, faults := 0, 0.0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// A sample line is "<series> <value>"; the series may carry a
		// {label="..."} body which itself contains no spaces the way the
		// registry renders it.
		sp := strings.LastIndexByte(text, ' ')
		if sp <= 0 {
			return fmt.Errorf("%s:%d: not a sample line: %q", path, line, text)
		}
		val, err := strconv.ParseFloat(text[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("%s:%d: bad sample value: %v", path, line, err)
		}
		if strings.HasPrefix(text, "convmeter_") {
			samples++
		}
		if strings.HasPrefix(text, faultsSeries) {
			faults += val
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("%s: no convmeter_ samples", path)
	}
	if requireFaults && faults <= 0 {
		return fmt.Errorf("%s: no positive %s sample (chaos run injected nothing?)", path, faultsSeries)
	}
	return nil
}

// driftStates are the states a drift stream may legally report.
var driftStates = map[string]bool{
	"calibrating": true, "warmup": true, "ok": true, "drifting": true,
}

// checkDrift validates a drift-monitor snapshot: a streams array whose
// entries carry a model, a phase and a legal state, with non-negative
// pair/event counts that are consistent with the top-level total. With
// requireDrift it additionally demands at least one event on a drifting
// stream (a slowdown run must have been caught); with forbidDrift it
// demands zero events (a clean run must not false-positive) and at least
// one stream in state ok — a detector still calibrating or warming up
// was never armed, so its silence proves nothing.
func checkDrift(path string, requireDrift, forbidDrift bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Streams []struct {
			Model  string `json:"model"`
			Phase  string `json:"phase"`
			State  string `json:"state"`
			Pairs  int    `json:"pairs"`
			Events int    `json:"events"`
		} `json:"streams"`
		Events *int `json:"events_total"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid drift JSON: %v", path, err)
	}
	if doc.Streams == nil || doc.Events == nil {
		return fmt.Errorf("%s: streams or events_total missing", path)
	}
	total, drifting, armed := 0, false, false
	for i, st := range doc.Streams {
		if st.Model == "" || st.Phase == "" {
			return fmt.Errorf("%s: stream %d has no model/phase", path, i)
		}
		if !driftStates[st.State] {
			return fmt.Errorf("%s: stream %s/%s has unknown state %q", path, st.Model, st.Phase, st.State)
		}
		if st.Pairs < 0 || st.Events < 0 {
			return fmt.Errorf("%s: stream %s/%s has negative counts", path, st.Model, st.Phase)
		}
		total += st.Events
		switch st.State {
		case "drifting":
			drifting = true
		case "ok":
			armed = true
		}
	}
	if total != *doc.Events {
		return fmt.Errorf("%s: events_total %d != sum of stream events %d", path, *doc.Events, total)
	}
	if requireDrift && (total < 1 || !drifting) {
		return fmt.Errorf("%s: no drift detected (events_total=%d) — the slowdown run was missed", path, total)
	}
	if forbidDrift && total != 0 {
		return fmt.Errorf("%s: %d drift event(s) on a clean run (false positive)", path, total)
	}
	if forbidDrift && !armed {
		return fmt.Errorf("%s: no stream in state ok — the detector never armed, so the clean run's silence proves nothing", path)
	}
	return nil
}

// linkTolerance is the cross-worker ordering slack checkTrace allows on
// causal links, in trace microseconds: every span reads one clock, but
// a receiver can finish its wait before the sending goroutine is
// scheduled again to stamp its send's end, so a send may appear to end
// slightly after the wait it released; a gross violation means the
// trace is broken.
const linkTolerance = 10_000 // 10ms

// checkTrace requires a well-formed Chrome trace-event document with a
// non-null traceEvents array. Events that carry span args (the tracer's
// exporter attaches {id, parent, link}) are additionally graph-checked:
// span ids must be unique, non-zero parents must resolve to another
// span in the document, durations must be non-negative, and a causal
// link must not travel backwards in time beyond linkTolerance — the
// linked sender must not *end* after the waiting span does by more than
// the scheduling slack. Dangling links (the sender faulted and never
// recorded) are tolerated.
func checkTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    *float64       `json:"ts"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid trace JSON: %v", path, err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("%s: traceEvents missing or null", path)
	}
	type spanEv struct {
		start, end float64
	}
	spans := map[int64]spanEv{}
	type pending struct {
		name   string
		parent int64
		link   int64
		end    float64
	}
	var checks []pending
	argID := func(args map[string]any, key string) (int64, bool) {
		v, ok := args[key].(float64)
		return int64(v), ok
	}
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("%s: event %d has no name", path, i)
		}
		if e.Phase != "X" {
			continue
		}
		if e.TS == nil {
			return fmt.Errorf("%s: event %d (%s): duration event without ts", path, i, e.Name)
		}
		if *e.TS < 0 || e.Dur < 0 {
			return fmt.Errorf("%s: event %d (%s): negative ts/dur (%g/%g)", path, i, e.Name, *e.TS, e.Dur)
		}
		id, ok := argID(e.Args, "id")
		if !ok {
			continue // not a span-exported event; format-only checks apply
		}
		if _, dup := spans[id]; dup {
			return fmt.Errorf("%s: event %d (%s): duplicate span id %d", path, i, e.Name, id)
		}
		spans[id] = spanEv{start: *e.TS, end: *e.TS + e.Dur}
		p := pending{name: e.Name, end: *e.TS + e.Dur}
		p.parent, _ = argID(e.Args, "parent")
		p.link, _ = argID(e.Args, "link")
		checks = append(checks, p)
	}
	for _, c := range checks {
		if c.parent != 0 {
			if _, ok := spans[c.parent]; !ok {
				return fmt.Errorf("%s: span %q: unresolvable parent %d", path, c.name, c.parent)
			}
		}
		if c.link != 0 {
			sender, ok := spans[c.link]
			if !ok {
				continue // dangling link: the sender faulted mid-op
			}
			if sender.end > c.end+linkTolerance {
				return fmt.Errorf("%s: span %q ends %.0fµs before its linked sender %d — cross-worker time-travel beyond the %dµs scheduling slack",
					path, c.name, sender.end-c.end, c.link, linkTolerance)
			}
		}
	}
	return nil
}
