// Command obscheck validates the artefacts a run writes at exit: the
// Chrome trace of -trace-out (a traceEvents array; with span args, a
// well-formed span graph: unique ids, resolvable parents, non-negative
// durations, and no cross-worker time-travel through causal links
// beyond the scheduling tolerance), whose spans it reads back into
// critpath.Analyze to check every training step's attribution
// (optionally asserting that a specific worker was, or no worker was,
// blamed), the drift-check stream of -drift-out (optionally asserting
// that drift was, or was not, detected), and the durable DAG run
// directory of -dag-dir (-manifest: every manifest parses and its
// content hash verifies, as dagrun demands before a resume trusts it,
// and input hashes resolve to committed manifests). With
// -require-faults the run directory must also hold an
// exp:exttrainfaults manifest whose result counts an injected fault.
// The clean-run gates (-forbid-drift, -forbid-blame) also require
// proof that something watched: an armed drift stream, an analyzed
// step. CI's obs-smoke (trace), chaos (manifest, faults), drift-smoke
// (drift, trace) and dag-smoke (manifest) targets run it against real
// artefacts so a formatting regression fails the build rather than
// silently producing files Perfetto rejects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"convmeter/internal/dagrun/manifest"
	"convmeter/internal/obs"
	"convmeter/internal/obs/critpath"
)

func main() {
	trace := flag.String("trace", "", "Chrome trace-event JSON file to validate, with the critical-path attribution of every training step in it")
	drift := flag.String("drift", "", "drift-check JSON snapshot to validate (from -drift-out)")
	manifestDir := flag.String("manifest", "", "DAG run directory to validate (from experiments -dag-dir): every manifest parses and its content hash verifies, and input hashes resolve to committed manifests")
	requireFaults := flag.Bool("require-faults", false, "additionally require the -manifest directory's exp:exttrainfaults result to count some faults_<class> > 0 (chaos-run validation)")
	requireDrift := flag.Bool("require-drift", false, "additionally require at least one drift event in the -drift snapshot (slowdown-run validation)")
	forbidDrift := flag.Bool("forbid-drift", false, "additionally require zero drift events and an armed stream (state ok) in the -drift snapshot (clean-run validation)")
	requireBlame := flag.Int("require-blame", -1, "additionally require at least one -trace step blaming this worker (straggler-run validation); -1 disables")
	forbidBlame := flag.Bool("forbid-blame", false, "additionally require zero blamed steps and at least one analyzed step in the -trace (clean-run validation)")
	flag.Parse()
	if *trace == "" && *drift == "" && *manifestDir == "" {
		fmt.Fprintln(os.Stderr, "obscheck: nothing to check (pass -trace, -drift and/or -manifest)")
		os.Exit(2)
	}
	if *requireFaults && *manifestDir == "" {
		fmt.Fprintln(os.Stderr, "obscheck: -require-faults needs -manifest")
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
	if (*requireBlame >= 0 || *forbidBlame) && *trace == "" {
		fmt.Fprintln(os.Stderr, "obscheck: -require-blame/-forbid-blame need -trace")
		os.Exit(2)
	}
	if *requireBlame >= 0 && *forbidBlame {
		fmt.Fprintln(os.Stderr, "obscheck: -require-blame and -forbid-blame are mutually exclusive")
		os.Exit(2)
	}
	if *trace != "" {
		spans, err := checkTrace(*trace)
		if err == nil {
			err = checkBlame(*trace, critpath.Analyze(spans).Steps, *requireBlame, *forbidBlame)
		}
		if err != nil {
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
	if *manifestDir != "" {
		err := checkManifests(*manifestDir)
		if err == nil && *requireFaults {
			err = checkFaults(*manifestDir)
		}
		if err != nil {
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

// checkBlame runs critpath.Validate on every step attributed from a
// trace (finite non-negative durations, legal dominant phases, blame
// consistency, sorted workers). With requireBlame >= 0 it demands at
// least one step blaming that worker (a straggler run must have been
// attributed); with forbidBlame it demands no blamed steps at all, and
// at least one analyzed step — a trace without steps watched nothing,
// so its silence proves nothing.
func checkBlame(path string, steps []critpath.StepAttribution, requireBlame int, forbidBlame bool) error {
	blamed := map[int]int{} // worker -> blamed-step count
	nBlamed := 0
	for _, st := range steps {
		if err := critpath.Validate(st); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if st.Blame >= 0 {
			blamed[st.Blame]++
			nBlamed++
		}
	}
	if forbidBlame && nBlamed > 0 {
		return fmt.Errorf("%s: %d blamed step(s) on a clean run (false positive): %v", path, nBlamed, blamed)
	}
	if forbidBlame && len(steps) == 0 {
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

// faultsNode is the DAG node whose result counts the faults a chaos
// run injected, one faults_<class> stat per class.
const faultsNode = "exp:exttrainfaults"

// checkFaults requires a run directory (already checked by
// checkManifests) to hold the faultsNode manifest with some
// faults_<class> stat > 0 — the proof that a chaos run actually
// injected something.
func checkFaults(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, faultsNode+".json"))
	if err != nil {
		return fmt.Errorf("%s: no %s manifest: %v", dir, faultsNode, err)
	}
	m, err := manifest.Parse(data)
	if err != nil {
		return fmt.Errorf("%s: %v", dir, err)
	}
	var res struct{ Stats map[string]float64 }
	if err := json.Unmarshal(m.Output, &res); err != nil {
		return fmt.Errorf("%s: %s output: %v", dir, faultsNode, err)
	}
	for k, v := range res.Stats {
		if strings.HasPrefix(k, "faults_") && v > 0 {
			return nil
		}
	}
	return fmt.Errorf("%s: %s counts no faults_<class> > 0 (chaos run injected nothing?)", dir, faultsNode)
}

// driftStates are the states a drift stream may legally report.
var driftStates = map[string]bool{
	"calibrating": true, "warmup": true, "ok": true, "drifting": true,
}

// checkDrift validates a drift-check snapshot: one stream object with a
// legal state and non-negative pair and event counts, where an event
// goes with state drifting (an event latches the stream drifting). With
// requireDrift it additionally demands at least one event (a slowdown
// run must have been caught); with forbidDrift it demands zero events
// (a clean run must not false-positive) and state ok — a detector still
// calibrating or warming up was never armed, so its silence proves
// nothing.
func checkDrift(path string, requireDrift, forbidDrift bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		State  string `json:"state"`
		Pairs  *int   `json:"pairs"`
		Events *int   `json:"events"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid drift JSON: %v", path, err)
	}
	if !driftStates[doc.State] {
		return fmt.Errorf("%s: unknown state %q", path, doc.State)
	}
	if doc.Pairs == nil || doc.Events == nil {
		return fmt.Errorf("%s: pairs or events missing", path)
	}
	events := *doc.Events
	if *doc.Pairs < 0 || events < 0 {
		return fmt.Errorf("%s: negative counts", path)
	}
	if (events > 0) != (doc.State == "drifting") {
		return fmt.Errorf("%s: %d event(s) in state %q — an event, and only an event, latches drifting", path, events, doc.State)
	}
	if requireDrift && events < 1 {
		return fmt.Errorf("%s: no drift detected (state %s) — the slowdown run was missed", path, doc.State)
	}
	if forbidDrift && events != 0 {
		return fmt.Errorf("%s: %d drift event(s) on a clean run (false positive)", path, events)
	}
	if forbidDrift && doc.State != "ok" {
		return fmt.Errorf("%s: state %s, not ok — the detector never armed, so the clean run's silence proves nothing", path, doc.State)
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
// non-null traceEvents array, and returns the events that carry span
// args (the tracer's exporter attaches {id, parent, worker, link}) as
// the span records they were written from: microseconds rounded back
// to nanoseconds, worker -1 when the arg is absent. Those events are
// graph-checked: span ids must be unique, non-zero parents must
// resolve to another span in the document, durations must be
// non-negative, and a causal link must not travel backwards in time
// beyond linkTolerance — the linked sender must not *end* after the
// waiting span does by more than the scheduling slack. Dangling links
// (the sender faulted and never recorded) are tolerated.
func checkTrace(path string) ([]obs.SpanRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name  string   `json:"name"`
			Phase string   `json:"ph"`
			TS    *float64 `json:"ts"`
			Dur   float64  `json:"dur"`
			Args  struct {
				ID     *int64 `json:"id"`
				Parent int64  `json:"parent"`
				Worker *int   `json:"worker"`
				Link   int64  `json:"link"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: invalid trace JSON: %v", path, err)
	}
	if doc.TraceEvents == nil {
		return nil, fmt.Errorf("%s: traceEvents missing or null", path)
	}
	ns := func(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }
	var spans []obs.SpanRecord
	ends := map[int64]float64{} // span id -> end, in trace µs
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return nil, fmt.Errorf("%s: event %d has no name", path, i)
		}
		if e.Phase != "X" {
			continue
		}
		if e.TS == nil {
			return nil, fmt.Errorf("%s: event %d (%s): duration event without ts", path, i, e.Name)
		}
		if *e.TS < 0 || e.Dur < 0 {
			return nil, fmt.Errorf("%s: event %d (%s): negative ts/dur (%g/%g)", path, i, e.Name, *e.TS, e.Dur)
		}
		if e.Args.ID == nil {
			continue // not a span-exported event; format-only checks apply
		}
		id := *e.Args.ID
		if _, dup := ends[id]; dup {
			return nil, fmt.Errorf("%s: event %d (%s): duplicate span id %d", path, i, e.Name, id)
		}
		ends[id] = *e.TS + e.Dur
		rec := obs.SpanRecord{
			Name: e.Name, ID: id, Parent: e.Args.Parent,
			Start: ns(*e.TS), Dur: ns(e.Dur), Worker: -1,
			Link: obs.SpanContext{Span: e.Args.Link},
		}
		if e.Args.Worker != nil {
			rec.Worker = *e.Args.Worker
		}
		spans = append(spans, rec)
	}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := ends[s.Parent]; !ok {
				return nil, fmt.Errorf("%s: span %q: unresolvable parent %d", path, s.Name, s.Parent)
			}
		}
		if s.Link.Valid() {
			senderEnd, ok := ends[s.Link.Span]
			if !ok {
				continue // dangling link: the sender faulted mid-op
			}
			if end := ends[s.ID]; senderEnd > end+linkTolerance {
				return nil, fmt.Errorf("%s: span %q ends %.0fµs before its linked sender %d — cross-worker time-travel beyond the %dµs scheduling slack",
					path, s.Name, senderEnd-end, s.Link.Span, linkTolerance)
			}
		}
	}
	return spans, nil
}
