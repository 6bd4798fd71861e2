// Package dagrun is the durable experiment orchestrator: a
// dependency-aware DAG executor with content-addressed, fail-close run
// manifests. Independent nodes run in parallel on a bounded worker pool;
// each completed node commits a manifest (internal/dagrun/manifest)
// binding its JSON output to a fingerprint of (code fingerprint, node
// config, input-manifest hashes), written with a power-loss-durable
// atomic write. A later run over the same directory
// resumes: a node whose manifest parses, whose content hash verifies and
// whose fingerprint matches the current run is served from disk;
// anything else — corrupt file, tampered output, edited config, changed
// dependency — fails closed and re-runs. Trust is never assumed, only
// re-derived.
//
// Crash-resume is provable, not hoped for: Config.Crash kills the run at
// one node's boundary or mid-node (after the work, before the commit),
// Execute aborts with ErrCrashed exactly as a killed process would —
// losing every uncommitted output — and the resume matrix in the tests
// kills a run at every boundary and verifies the resumed run's results
// are bit-identical to an uninterrupted one.
//
// The package lives on the measured side of the analytical/measured
// boundary: it spawns goroutines, reads clocks and writes files. The
// manifest subpackage underneath is classified deterministic — hashing
// must be a pure function or no manifest would ever verify twice.
package dagrun

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"convmeter/internal/dagrun/manifest"
	"convmeter/internal/obs"
)

// Node declares one unit of the DAG.
type Node struct {
	// ID names the node; it doubles as the manifest file name, so it must
	// be non-empty and contain no path separators.
	ID string
	// Deps lists the node ids whose outputs this node consumes. The
	// executor starts the node only after every dependency committed.
	Deps []string
	// Config is the node's configuration fingerprint component: every
	// setting that shaped the output belongs in it, because a manifest
	// whose config differs is stale and must not be reused.
	Config string
	// Run computes the node's output from its dependencies' outputs. The
	// returned value is JSON-marshalled immediately — the manifest's
	// content — and dependents see only that serialized form, so resumed
	// and uninterrupted runs feed dependents identical bytes.
	Run func(in Inputs) (any, error)
}

// Inputs gives a node's Run access to its dependencies' outputs.
type Inputs struct {
	outputs map[string]json.RawMessage
}

// Decode unmarshals dependency dep's output into v.
func (in Inputs) Decode(dep string, v any) error {
	raw, ok := in.outputs[dep]
	if !ok {
		return fmt.Errorf("dagrun: node has no dependency %q", dep)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("dagrun: decode input %q: %w", dep, err)
	}
	return nil
}

// Config parameterises a Runner.
type Config struct {
	// Dir is the manifest directory; empty disables durability (the DAG
	// still executes, in memory only).
	Dir string
	// Code is the code fingerprint component: a version tag the caller
	// bumps whenever node semantics change, invalidating every manifest
	// written under the old code.
	Code string
	// Workers bounds the pool executing independent nodes in parallel;
	// <= 0 means 2.
	Workers int
	// Obs receives per-node "dag:<id>" spans; each node's state,
	// seconds and fail-close reason are in the Report. Nil disables
	// telemetry.
	Obs *obs.Obs
	// Crash, as "node@point" with point CrashBoundary or CrashMid, kills
	// the run at that point of that node. Empty injects nothing. It is
	// no fingerprint component: a kill is an event of the environment,
	// not part of any node's identity.
	Crash string
}

// Crash points for Config.Crash.
const (
	// CrashBoundary kills the process at the node boundary, before the
	// node runs: resume finds no trace of the node.
	CrashBoundary = "boundary"
	// CrashMid kills the process after the node's work completes but
	// before its manifest commits: resume finds the work lost and must
	// re-run it — the torn state fail-close manifests exist for.
	CrashMid = "mid"
)

// ErrCrashed marks an Execute aborted by an injected process crash: the
// run died fail-stop at a node boundary or mid-node, committed manifests
// survive, everything else is lost. A caller that sees it should exit
// nonzero; a rerun over the same directory resumes.
var ErrCrashed = errors.New("dagrun: run killed by injected crash")

// node is the executor's per-node state. The def and edge slices are
// immutable after New; everything else is guarded by Runner.mu.
type node struct {
	def        Node
	deps       []*node
	dependents []*node

	remaining    int // unmet dependencies
	state        string
	attempt      int
	manifestHash string
	blame        string
	errMsg       string
	failClose    string
	seconds      float64
	output       json.RawMessage
}

// Runner executes one DAG. Build with New, run with Execute (once).
type Runner struct {
	cfg   Config
	order []*node // deterministic topological order
	byID  map[string]*node

	crashNode, crashPoint string // Config.Crash split at its last "@"

	mu         sync.Mutex
	started    bool
	resumed    int
	crashed    string // Config.Crash once it fired
	firstErr   error
	crashedErr error
}

// New validates the node set — unique file-safe ids, resolvable
// dependencies, no cycles — and the crash point, which must name a node
// of the set, and returns a Runner in the all-pending state. The
// manifest directory is created if configured.
func New(cfg Config, nodes []Node) (*Runner, error) {
	if len(nodes) == 0 {
		return nil, errors.New("dagrun: empty node set")
	}
	r := &Runner{cfg: cfg, byID: make(map[string]*node, len(nodes))}
	for _, def := range nodes {
		if def.ID == "" {
			return nil, errors.New("dagrun: node with empty id")
		}
		if strings.ContainsAny(def.ID, "/\\") || def.ID == "." || def.ID == ".." {
			return nil, fmt.Errorf("dagrun: node id %q is not a valid manifest file name", def.ID)
		}
		if def.Run == nil {
			return nil, fmt.Errorf("dagrun: node %s has no Run", def.ID)
		}
		if _, dup := r.byID[def.ID]; dup {
			return nil, fmt.Errorf("dagrun: duplicate node id %s", def.ID)
		}
		r.byID[def.ID] = &node{def: def, state: StatePending}
	}
	for _, def := range nodes {
		n := r.byID[def.ID]
		seen := make(map[string]bool, len(def.Deps))
		for _, dep := range def.Deps {
			d, ok := r.byID[dep]
			if !ok {
				return nil, fmt.Errorf("dagrun: node %s depends on unknown node %s", def.ID, dep)
			}
			if dep == def.ID {
				return nil, fmt.Errorf("dagrun: node %s depends on itself", def.ID)
			}
			if seen[dep] {
				return nil, fmt.Errorf("dagrun: node %s lists dependency %s twice", def.ID, dep)
			}
			seen[dep] = true
			n.deps = append(n.deps, d)
			d.dependents = append(d.dependents, n)
			n.remaining++
		}
	}
	// Kahn's algorithm over the declared order: deterministic, and any
	// leftover node sits on a cycle.
	indeg := make(map[*node]int, len(nodes))
	var queue []*node
	for _, def := range nodes {
		n := r.byID[def.ID]
		indeg[n] = n.remaining
		if n.remaining == 0 {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		r.order = append(r.order, n)
		for _, d := range n.dependents {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(r.order) != len(nodes) {
		for _, def := range nodes {
			if n := r.byID[def.ID]; indeg[n] > 0 {
				return nil, fmt.Errorf("dagrun: dependency cycle through node %s", def.ID)
			}
		}
	}
	if cfg.Crash != "" {
		i := strings.LastIndexByte(cfg.Crash, '@')
		if i < 0 || r.byID[cfg.Crash[:i]] == nil {
			return nil, fmt.Errorf("dagrun: crash %q names no node@point of the DAG", cfg.Crash)
		}
		r.crashNode, r.crashPoint = cfg.Crash[:i], cfg.Crash[i+1:]
		if r.crashPoint != CrashBoundary && r.crashPoint != CrashMid {
			return nil, fmt.Errorf("dagrun: crash %q, want point %s or %s", cfg.Crash, CrashBoundary, CrashMid)
		}
	}
	if cfg.Dir != "" {
		if err := ensureDir(cfg.Dir); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Execute runs the DAG to completion (or to the first failure/injected
// crash), returning the final audit report. It may be called once.
func (r *Runner) Execute() (*Report, error) {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return nil, errors.New("dagrun: Execute called twice")
	}
	r.started = true
	r.mu.Unlock()

	workers := r.cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var launch func(n *node)
	launch = func(n *node) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{} // bounded pool slot
			ok := r.runNode(n)
			<-sem
			if !ok {
				return
			}
			var ready []*node
			r.mu.Lock()
			if r.firstErr == nil && r.crashedErr == nil {
				for _, d := range n.dependents {
					d.remaining--
					if d.remaining == 0 && d.state == StatePending {
						ready = append(ready, d)
					}
				}
			}
			r.mu.Unlock()
			for _, d := range ready {
				launch(d)
			}
		}()
	}
	var roots []*node
	r.mu.Lock()
	for _, n := range r.order {
		if n.remaining == 0 {
			roots = append(roots, n)
		}
	}
	r.mu.Unlock()
	for _, n := range roots {
		launch(n)
	}
	wg.Wait()

	r.mu.Lock()
	for _, n := range r.order {
		if n.state != StatePending {
			continue
		}
		n.state = StateSkipped
		switch {
		case r.crashedErr != nil:
			n.blame = "lost: run crashed at " + r.crashed
		case r.firstErr != nil:
			n.blame = "skipped: upstream failure"
		}
	}
	err := r.firstErr
	if r.crashedErr != nil {
		err = r.crashedErr
	}
	r.mu.Unlock()
	return r.snapshot(), err
}

// runNode executes one node end to end: boundary crash check, manifest
// reuse (fail-close), the node's Run, mid-node crash check, manifest
// commit. Reports whether dependents may proceed.
func (r *Runner) runNode(n *node) bool {
	r.mu.Lock()
	aborted := r.firstErr != nil || r.crashedErr != nil
	if !aborted {
		n.state = StateRunning
	}
	inputs := make(map[string]json.RawMessage, len(n.deps))
	hashes := make(map[string]string, len(n.deps))
	for _, d := range n.deps {
		inputs[d.def.ID] = d.output
		hashes[d.def.ID] = d.manifestHash
	}
	r.mu.Unlock()
	if aborted {
		return false
	}

	if n.def.ID == r.crashNode && r.crashPoint == CrashBoundary {
		r.crash(n)
		return false
	}

	attempt := 1
	var fp string
	if r.cfg.Dir != "" {
		fp = manifest.Fingerprint(manifest.FingerprintInput{
			Code:   r.cfg.Code,
			Config: n.def.Config,
			Inputs: hashes,
		})
		m, failClose := loadManifest(r.cfg.Dir, n.def.ID)
		switch {
		case m != nil && m.Fingerprint == fp:
			r.mu.Lock()
			n.state = StateReused
			n.attempt = m.Attempt
			n.manifestHash = m.Hash
			n.output = m.Output
			r.resumed++
			r.mu.Unlock()
			return true
		case m != nil:
			// Well-formed but produced under different code, config or
			// inputs: stale. Never trusted.
			attempt = m.Attempt + 1
			failClose = FailCloseFingerprint
		}
		if failClose != "" {
			r.mu.Lock()
			n.failClose = failClose
			r.mu.Unlock()
		}
	}

	t0 := time.Now()
	sp := r.cfg.Obs.Start("dag:" + n.def.ID)
	out, err := n.def.Run(Inputs{outputs: inputs})
	sp.End()
	secs := time.Since(t0).Seconds()
	if err != nil {
		r.fail(n, secs, err)
		return false
	}
	raw, err := json.Marshal(out)
	if err != nil {
		r.fail(n, secs, fmt.Errorf("marshal output: %w", err))
		return false
	}

	if n.def.ID == r.crashNode && r.crashPoint == CrashMid {
		// The work is done but the process dies before the commit: the
		// output is lost, exactly like a real kill between compute and
		// rename. Resume must re-run this node.
		r.crash(n)
		return false
	}

	var mHash string
	if r.cfg.Dir != "" && !r.crashedNow() {
		m := &manifest.Manifest{
			Node:        n.def.ID,
			Fingerprint: fp,
			Code:        r.cfg.Code,
			Config:      n.def.Config,
			Inputs:      hashes,
			Attempt:     attempt,
			Output:      raw,
		}
		data, err := manifest.Seal(m)
		if err != nil {
			r.fail(n, secs, err)
			return false
		}
		if err := writeFileAtomic(manifestPath(r.cfg.Dir, n.def.ID), data); err != nil {
			r.fail(n, secs, fmt.Errorf("commit manifest: %w", err))
			return false
		}
		mHash = m.Hash
	}

	r.mu.Lock()
	n.state = StateDone
	n.attempt = attempt
	n.manifestHash = mHash
	n.output = raw
	n.seconds = secs
	r.mu.Unlock()
	return true
}

// crash fires the configured crash at node n: the node (and the run)
// die fail-stop, nothing of the node is committed, and Execute will
// return ErrCrashed.
func (r *Runner) crash(n *node) {
	r.mu.Lock()
	n.state = StateFailed
	n.blame = "crash@" + r.crashPoint
	r.crashed = r.cfg.Crash
	r.crashedErr = fmt.Errorf("%w at %s", ErrCrashed, r.cfg.Crash)
	r.mu.Unlock()
}

// fail records a node failure; the first failure aborts scheduling.
func (r *Runner) fail(n *node, secs float64, err error) {
	wrapped := fmt.Errorf("dagrun: node %s: %w", n.def.ID, err)
	r.mu.Lock()
	n.state = StateFailed
	n.errMsg = err.Error()
	n.seconds = secs
	if r.firstErr == nil {
		r.firstErr = wrapped
	}
	r.mu.Unlock()
}

// crashedNow reports whether an injected crash already fired — used to
// suppress commits racing with the process's death.
func (r *Runner) crashedNow() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashedErr != nil
}

// Output returns the committed output of node id after Execute; ok is
// false for nodes that never completed.
func (r *Runner) Output(id string) (json.RawMessage, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.byID[id]
	if !ok || n.output == nil {
		return nil, false
	}
	return n.output, true
}
