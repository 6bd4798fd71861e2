package dagrun

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaV1 tags the DAG audit report returned by Execute.
const SchemaV1 = "convmeter/dag/v1"

// Node execution states as reported in the audit trail and counted on
// the convmeter_dag_nodes gauges.
const (
	StatePending = "pending" // waiting on dependencies
	StateRunning = "running" // a worker is executing Run
	StateDone    = "done"    // Run completed and the manifest committed
	StateReused  = "reused"  // served from a fingerprint-matching manifest
	StateFailed  = "failed"  // Run errored or an injected crash fired here
	StateSkipped = "skipped" // never started: upstream failure or crash
)

// States lists every node state, in lifecycle order.
var States = []string{StatePending, StateRunning, StateDone, StateReused, StateFailed, StateSkipped}

// NodeStatus is one node's row in the audit trail.
type NodeStatus struct {
	ID    string   `json:"id"`
	Deps  []string `json:"deps,omitempty"`
	State string   `json:"state"`
	// Attempt counts executions across the run directory's lifetime,
	// resumes included; 0 until the node first runs or is reused.
	Attempt int `json:"attempt"`
	// Manifest is the content hash of the node's committed manifest;
	// empty for nodes without one (not yet done, or durability disabled).
	Manifest string `json:"manifest,omitempty"`
	// Blame explains why a node did not complete: "crash@boundary",
	// "crash@mid", "skipped: upstream failure", "lost: run crashed at
	// <node@point>".
	Blame string `json:"blame,omitempty"`
	// Error is the node's own failure, when Run returned one.
	Error string `json:"error,omitempty"`
	// Seconds is the wall-clock of the node's most recent execution;
	// zero for reused nodes (nothing ran).
	Seconds float64 `json:"seconds"`
}

// Report is the queryable audit trail of one DAG run.
type Report struct {
	Schema string `json:"schema"`
	// Nodes lists every node in deterministic topological order.
	Nodes []NodeStatus `json:"nodes"`
	// Resumed counts nodes served from manifests instead of re-run.
	Resumed int `json:"resumed"`
	// Crashed names the first injected crash as "node@point", empty when
	// none fired.
	Crashed string `json:"crashed,omitempty"`
}

// Node returns the status row for id, or nil.
func (rep *Report) Node(id string) *NodeStatus {
	if rep == nil {
		return nil
	}
	for i := range rep.Nodes {
		if rep.Nodes[i].ID == id {
			return &rep.Nodes[i]
		}
	}
	return nil
}

// snapshot captures the audit trail.
func (r *Runner) snapshot() *Report {
	rep := &Report{Schema: SchemaV1}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep.Resumed = r.resumed
	rep.Crashed = r.crashed
	for _, n := range r.order {
		st := NodeStatus{
			ID:       n.def.ID,
			State:    n.state,
			Attempt:  n.attempt,
			Manifest: n.manifestHash,
			Blame:    n.blame,
			Error:    n.errMsg,
			Seconds:  n.seconds,
		}
		if len(n.def.Deps) > 0 {
			st.Deps = append(st.Deps, n.def.Deps...)
		}
		rep.Nodes = append(rep.Nodes, st)
	}
	return rep
}

// DecodeOutput unmarshals a committed node output (from Output) into v.
func DecodeOutput(raw json.RawMessage, v any) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("dagrun: decode output: %w", err)
	}
	return nil
}

// WriteJSON writes the audit trail as indented JSON — the -dag-out
// artefact.
func (rep *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return fmt.Errorf("dagrun: marshal report: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
