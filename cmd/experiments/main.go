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
	"sort"
	"strings"

	"convmeter"
	"convmeter/internal/driftwatch"
	"convmeter/internal/obs"
)

func main() {
	opts, err := parseOptions(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		// The flag set has printed the error and the usage.
		os.Exit(2)
	}
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

// parseOptions parses the command line into options. Errors, -h
// included, are reported on errOut with the usage.
func parseOptions(args []string, errOut io.Writer) (options, error) {
	opts := options{}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&opts.id, "run", "all", "experiment id (fig2, table1, table2, table3single, fig6, table3multi, fig8, fig9, ablation, extvit, extedge, extpipeline, extreal, exttrainreal, exttrainfaults, extstrong) or 'all'")
	fs.Int64Var(&opts.seed, "seed", 1, "simulator/fitting seed")
	fs.BoolVar(&opts.quick, "quick", false, "use reduced sweeps (for smoke runs)")
	fs.Int64Var(&opts.faultsSeed, "faults-seed", 0, "fault-injection schedule seed for exttrainfaults (0 = use -seed); the same seed reproduces the identical fault schedule")
	fs.StringVar(&opts.faultsProfile, "faults-profile", "", "fault profile for exttrainfaults: none, light, heavy, chaos or slowdown (default chaos)")
	fs.StringVar(&opts.outPath, "out", "", "also write the output to this file")
	fs.StringVar(&opts.csvDir, "csvdir", "", "write figure data series as CSV files into this directory")
	fs.StringVar(&opts.traceOut, "trace-out", "", "write recorded spans as Chrome trace-event JSON to this file (open in Perfetto)")
	fs.StringVar(&opts.driftOut, "drift-out", "", "write the final state of the drift check on exttrainfaults' step times as JSON to this file")
	fs.StringVar(&opts.dagDir, "dag-dir", "", "durable run directory: every completed DAG node commits a content-addressed manifest here, and a re-run over the same directory resumes fail-close from fingerprint-matching manifests")
	fs.IntVar(&opts.dagWorkers, "dag-workers", 2, "worker pool size for independent DAG nodes")
	fs.StringVar(&opts.dagCrash, "dag-crash", "", "inject a process crash at node@point (point: boundary or mid) for crash-resume testing; the run dies with exit code 3 and resumes via -dag-dir")
	fs.StringVar(&opts.dagOut, "dag-out", "", "write the DAG audit trail (per-node state, manifest hash, attempt, blame, fail-close reason) as JSON to this file")
	return opts, fs.Parse(args)
}

// options carries the full flag surface of one invocation.
type options struct {
	id              string
	seed            int64
	quick           bool
	faultsSeed      int64
	faultsProfile   string
	outPath, csvDir string
	traceOut        string
	driftOut        string
	dagDir          string
	dagWorkers      int
	dagCrash        string
	dagOut          string
}

func run(opts options) error {
	cfg := convmeter.ExperimentConfig{
		Seed: opts.seed, Quick: opts.quick,
		FaultsSeed: opts.faultsSeed, FaultsProfile: opts.faultsProfile,
	}
	// The drift check reads the trainer's step record, so -drift-out
	// turns on no tracer.
	if opts.traceOut != "" {
		cfg.Obs = obs.New()
	}
	if opts.driftOut != "" {
		cfg.Drift = driftwatch.NewStream()
	}
	// The run itself is a DAG: independent experiments execute in
	// parallel on a bounded pool, and with -dag-dir every completed node
	// commits a fail-close manifest, making the run crash-resumable.
	ids := []string{opts.id}
	if opts.id == "all" {
		ids = convmeter.ExperimentIDs()
	}
	results, rep, runErr := convmeter.RunExperimentsDAG(ids, cfg, convmeter.ExperimentsDagConfig{
		Dir: opts.dagDir, Workers: opts.dagWorkers, Crash: opts.dagCrash,
	})
	if opts.dagOut != "" && rep != nil {
		// The audit trail is written even — especially — when the run
		// died: it records which node was killed and what survived.
		if err := obs.Export(opts.dagOut, rep.WriteJSON); err != nil {
			return err
		}
	}
	if errors.Is(runErr, convmeter.ErrDagCrashed) && opts.dagDir != "" {
		return fmt.Errorf("%w; re-run with the same -dag-dir to resume", runErr)
	}
	if runErr != nil {
		return runErr
	}
	if rep.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: resumed %d node(s) from manifests in %s\n", rep.Resumed, opts.dagDir)
	}
	if opts.traceOut != "" {
		if err := obs.Export(opts.traceOut, cfg.Obs.Trc.WriteChromeTrace); err != nil {
			return err
		}
	}
	if opts.driftOut != "" {
		if err := obs.Export(opts.driftOut, cfg.Drift.WriteJSON); err != nil {
			return err
		}
	}
	report := func(w io.Writer) error {
		rule := strings.Repeat("=", 62)
		for _, res := range results {
			if _, err := fmt.Fprintf(w, "%s\n%s\n%s\n%s\n", rule, res.Title, rule, res.Text); err != nil {
				return err
			}
		}
		return nil
	}
	if err := report(os.Stdout); err != nil {
		return err
	}
	if opts.outPath != "" {
		if err := obs.Export(opts.outPath, report); err != nil {
			return err
		}
	}
	if opts.csvDir == "" {
		return nil
	}
	for _, res := range results {
		names := make([]string, 0, len(res.Series))
		for name := range res.Series {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			path := filepath.Join(opts.csvDir, name+".csv")
			if err := obs.Export(path, func(w io.Writer) error {
				_, err := io.WriteString(w, res.Series[name])
				return err
			}); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", path)
		}
	}
	return nil
}
