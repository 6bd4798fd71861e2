// Command experiments reproduces the paper's evaluation: every table and
// figure, end to end (dataset generation → fitting → leave-one-model-out
// evaluation → rendered tables). Its full-scale output is recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1 -seed 7
//	experiments -run fig8 -quick
//
// Runs execute as a dependency DAG (independent experiments in
// parallel); with -dag-dir every completed node commits a fail-close
// manifest, so a killed run resumes from its last committed node:
//
//	experiments -run table1 -dag-dir run1           # killed midway…
//	experiments -run table1 -dag-dir run1           # …resumes here
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"convmeter"
	"convmeter/internal/driftwatch"
	"convmeter/internal/faults"
	"convmeter/internal/obs"
	"convmeter/internal/obs/critpath"
)

func main() {
	opts := options{}
	flag.StringVar(&opts.id, "run", "all", "experiment id (fig2, table1, table2, table3single, fig6, table3multi, fig8, fig9, ablation, extvit, extedge, extpipeline, extreal, exttrainreal, exttrainfaults, extstrong) or 'all'")
	flag.Int64Var(&opts.seed, "seed", 1, "simulator/fitting seed")
	flag.BoolVar(&opts.quick, "quick", false, "use reduced sweeps (for smoke runs)")
	flag.Int64Var(&opts.faultsSeed, "faults-seed", 0, "fault-injection schedule seed for exttrainfaults (0 = use -seed); the same seed reproduces the identical fault schedule")
	flag.StringVar(&opts.faultsProfile, "faults-profile", "", "fault profile for exttrainfaults: none, light, heavy, chaos or slowdown (default chaos)")
	flag.StringVar(&opts.outPath, "out", "", "also write the output to this file")
	flag.StringVar(&opts.csvDir, "csvdir", "", "write figure data series as CSV files into this directory")
	flag.StringVar(&opts.metricsOut, "metrics-out", "", "write collected runtime metrics to this file as Prometheus text")
	flag.StringVar(&opts.traceOut, "trace-out", "", "write recorded spans as Chrome trace-event JSON to this file (open in Perfetto)")
	flag.StringVar(&opts.driftOut, "drift-out", "", "write the final drift-monitor state as JSON to this file")
	flag.StringVar(&opts.critpathOut, "critpath-out", "", "write the chaos trainer's per-step critical-path attribution report as JSON to this file")
	flag.StringVar(&opts.dagDir, "dag-dir", "", "durable run directory: every completed DAG node commits a content-addressed manifest here, and a re-run over the same directory resumes fail-close from fingerprint-matching manifests")
	flag.IntVar(&opts.dagWorkers, "dag-workers", 2, "worker pool size for independent DAG nodes")
	flag.StringVar(&opts.dagCrash, "dag-crash", "", "inject a process crash at node@point (point: boundary or mid) for crash-resume testing; the run dies with exit code 3 and resumes via -dag-dir")
	flag.StringVar(&opts.dagOut, "dag-out", "", "write the DAG audit trail (per-node state, manifest hash, attempt, blame) as JSON to this file")
	flag.Parse()
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, convmeter.ErrDagCrashed) {
			// Distinguish an injected kill (resumable) from a real failure:
			// dag-smoke asserts on this exit code.
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// options carries the full flag surface of one invocation.
type options struct {
	id                   string
	seed                 int64
	quick                bool
	faultsSeed           int64
	faultsProfile        string
	outPath, csvDir      string
	metricsOut, traceOut string
	driftOut             string
	critpathOut          string
	dagDir               string
	dagWorkers           int
	dagCrash             string
	dagOut               string
}

// dagFaults builds the orchestrator-level crash injector for -dag-crash.
func dagFaults(opts options, bundle *obs.Obs) (*faults.Injector, error) {
	if opts.dagCrash == "" {
		return nil, nil
	}
	node, point, ok := strings.Cut(opts.dagCrash, "@")
	if !ok || node == "" {
		return nil, fmt.Errorf("bad -dag-crash %q, want node@point (e.g. lomo@boundary)", opts.dagCrash)
	}
	seed := opts.faultsSeed
	if seed == 0 {
		seed = opts.seed
	}
	prof := faults.Profile{NodeCrashes: map[string]string{node: point}}
	return faults.New(seed, prof, bundle)
}

func run(opts options) (err error) {
	cfg := convmeter.ExperimentConfig{
		Seed: opts.seed, Quick: opts.quick,
		FaultsSeed: opts.faultsSeed, FaultsProfile: opts.faultsProfile,
	}
	if opts.metricsOut != "" || opts.traceOut != "" || opts.driftOut != "" || opts.critpathOut != "" {
		cfg.Obs = obs.New()
		cfg.Drift = driftwatch.New(cfg.Obs)
	}
	if opts.critpathOut != "" {
		cfg.Crit = new(critpath.Tracker)
	}
	// The run itself is a DAG: independent experiments execute in
	// parallel on a bounded pool, and with -dag-dir every completed node
	// commits a fail-close manifest, making the run crash-resumable.
	ids := []string{opts.id}
	if opts.id == "all" {
		ids = convmeter.ExperimentIDs()
	}
	inj, err := dagFaults(opts, cfg.Obs)
	if err != nil {
		return err
	}
	results, rep, runErr := convmeter.RunExperimentsDAG(ids, cfg, convmeter.ExperimentsDagConfig{
		Dir: opts.dagDir, Workers: opts.dagWorkers, Faults: inj,
	})
	if opts.dagOut != "" && rep != nil {
		// The audit trail is written even — especially — when the run
		// died: it records which node was killed and what survived.
		if err := writeArtefact(opts.dagOut, rep.WriteJSON); err != nil {
			return err
		}
	}
	if runErr != nil {
		if rep != nil && rep.Crashed != "" {
			fmt.Fprintf(os.Stderr, "experiments: run killed at %s; re-run with the same -dag-dir to resume\n", rep.Crashed)
		}
		return runErr
	}
	if rep.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: resumed %d node(s) from manifests in %s\n", rep.Resumed, opts.dagDir)
	}
	if err := cfg.Obs.Export(opts.metricsOut, opts.traceOut); err != nil {
		return err
	}
	if opts.driftOut != "" {
		if err := writeArtefact(opts.driftOut, cfg.Drift.WriteJSON); err != nil {
			return err
		}
	}
	if opts.critpathOut != "" {
		if err := writeArtefact(opts.critpathOut, cfg.Crit.WriteJSON); err != nil {
			return err
		}
	}
	sinks := []io.Writer{os.Stdout}
	if opts.outPath != "" {
		f, err := os.Create(opts.outPath)
		if err != nil {
			return err
		}
		// A report that silently lost its tail is worse than an error:
		// surface the close failure unless something already failed.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		sinks = append(sinks, f)
	}
	w := io.MultiWriter(sinks...)
	rule := strings.Repeat("=", 62)
	for _, res := range results {
		if _, err := fmt.Fprintf(w, "%s\n%s\n%s\n", rule, res.Title, rule); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, res.Text); err != nil {
			return err
		}
		if opts.csvDir == "" {
			continue
		}
		for name, doc := range res.Series {
			path := filepath.Join(opts.csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", path)
		}
	}
	return nil
}

// writeArtefact creates path and runs write into it, surfacing the
// first error, Close's included.
func writeArtefact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		// The write failure is the error worth reporting.
		_ = f.Close()
		return err
	}
	return f.Close()
}
