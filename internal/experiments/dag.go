package experiments

import (
	"fmt"

	"convmeter/internal/core"
	"convmeter/internal/dagrun"
)

// CodeFingerprint tags the semantics of the experiment DAG's nodes and
// is folded into every node fingerprint. Bump the version whenever a
// node's meaning changes — sweep shapes, fitting procedure, rendering —
// so manifests committed under the old semantics fail closed instead of
// resurfacing as current results.
const CodeFingerprint = "convmeter/experiments@v2"

// DagConfig parameterises a durable experiment run on top of the
// experiment Config.
type DagConfig struct {
	// Dir is the run's manifest directory; empty disables durability
	// (the DAG still executes, with parallelism, in memory).
	Dir string
	// Workers bounds the executor's worker pool; <= 0 means 2.
	Workers int
	// Crash kills the run at "node@point" (dagrun.Config.Crash). Unlike
	// exttrainfaults' fault schedule it is no part of any node's
	// identity, so it moves no fingerprint.
	Crash string
}

// SuiteReport is the terminal report node's output: every experiment
// result in the paper's order.
type SuiteReport struct {
	Results []*Result `json:"results"`
}

// nodeID maps an experiment id to the DAG node that produces its
// Result. table1 is staged — its evaluation node is "lomo", fed by
// "fit" — while every other experiment runs whole as "exp:<id>".
func nodeID(id string) string {
	if id == "table1" {
		return "lomo"
	}
	return "exp:" + id
}

// nodeConfig renders a node's configuration fingerprint component: the
// settings that shape its output. Only exttrainfaults runs under the
// fault schedule, so only its node binds the resolved faults seed and
// profile: a chaos manifest never resumes a clean run, and a new
// schedule re-runs no other experiment.
func nodeConfig(stage string, cfg Config) string {
	s := fmt.Sprintf("stage=%s seed=%d quick=%t", stage, cfg.Seed, cfg.Quick)
	if stage == "exttrainfaults" {
		s += fmt.Sprintf(" faults_seed=%d faults_profile=%s", faultsSeed(cfg), profileName(cfg))
	}
	return s
}

// BuildDAG assembles the experiment pipeline for the given ids:
//
//	fit ──▶ lomo ─┐
//	exp:<id> ─────┼─▶ report
//	exp:<id> ─────┘
//
// table1 expands into the staged fit→lomo pair, and a terminal report
// node — depending on everything — assembles the ordered result list.
// Independent experiments are roots and run in parallel on the
// executor's pool.
func BuildDAG(ids []string, cfg Config) ([]dagrun.Node, error) {
	known := make(map[string]Runner, len(Runners()))
	for _, r := range Runners() {
		known[r.ID] = r
	}
	requested := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := known[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		if requested[id] {
			return nil, fmt.Errorf("experiments: experiment %q requested twice", id)
		}
		requested[id] = true
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: empty experiment list")
	}

	var nodes []dagrun.Node
	var reportDeps []string
	for _, r := range Runners() { // paper order, deterministic
		if !requested[r.ID] {
			continue
		}
		if r.ID == "table1" {
			nodes = append(nodes,
				dagrun.Node{
					ID:     "fit",
					Config: nodeConfig("fit", cfg),
					Run: func(in dagrun.Inputs) (any, error) {
						return table1Samples(cfg)
					},
				},
				dagrun.Node{
					ID:     "lomo",
					Deps:   []string{"fit"},
					Config: nodeConfig("lomo", cfg),
					Run: func(in dagrun.Inputs) (any, error) {
						var samples map[string][]core.Sample
						if err := in.Decode("fit", &samples); err != nil {
							return nil, err
						}
						return runOne(Runner{ID: "table1", Desc: known["table1"].Desc, Run: func(c Config) (*Result, error) {
							return table1FromSamples(c, samples)
						}}, cfg)
					},
				})
		} else {
			r := r
			nodes = append(nodes, dagrun.Node{
				ID:     nodeID(r.ID),
				Config: nodeConfig(r.ID, cfg),
				Run: func(in dagrun.Inputs) (any, error) {
					return runOne(r, cfg)
				},
			})
		}
		reportDeps = append(reportDeps, nodeID(r.ID))
	}

	nodes = append(nodes, dagrun.Node{
		ID:     "report",
		Deps:   reportDeps,
		Config: nodeConfig("report", cfg),
		Run: func(in dagrun.Inputs) (any, error) {
			suite := &SuiteReport{}
			for _, r := range Runners() {
				if !requested[r.ID] {
					continue
				}
				var res Result
				if err := in.Decode(nodeID(r.ID), &res); err != nil {
					return nil, err
				}
				suite.Results = append(suite.Results, &res)
			}
			return suite, nil
		},
	})
	return nodes, nil
}

// RunDAG builds the DAG for the given experiments, executes it and
// decodes the ordered results from the terminal report node. The
// dagrun.Report is returned even on failure so callers can surface
// blame.
func RunDAG(ids []string, cfg Config, dcfg DagConfig) ([]*Result, *dagrun.Report, error) {
	nodes, err := BuildDAG(ids, cfg)
	if err != nil {
		return nil, nil, err
	}
	r, err := dagrun.New(dagrun.Config{
		Dir:     dcfg.Dir,
		Code:    CodeFingerprint,
		Workers: dcfg.Workers,
		Obs:     cfg.Obs,
		Crash:   dcfg.Crash,
	}, nodes)
	if err != nil {
		return nil, nil, err
	}
	rep, err := r.Execute()
	if err != nil {
		return nil, rep, err
	}
	raw, ok := r.Output("report")
	if !ok {
		return nil, rep, fmt.Errorf("experiments: DAG run has no report output")
	}
	var suite SuiteReport
	if err := dagrun.DecodeOutput(raw, &suite); err != nil {
		return nil, rep, err
	}
	return suite.Results, rep, nil
}
