// Command perfbench is ConvMeter's end-to-end and per-layer benchmark of
// its real compute: the float32 engine (infer), the data-parallel
// trainer (train), the ring all-reduce (sync) and the simulated
// reproduction pipeline (reproduce). See README.md for the workloads,
// the metrics and how to run a set, a traced run and a compare.
//
//	perfbench --workload infer --seed 1 --seconds 20 --trace 0
//	perfbench -seed 1 -out set.json          # every workload
//	perfbench -compare a.json b.json
//	perfbench -update-golden testdata
//
// A run prints every metric with its unit on standard error, writes
// the full result as JSON and prints, as the last line of standard
// output, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace 1 the per-layer ones. It exits 1 when any
// output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// outDir holds results and traces, relative to the working directory.
const outDir = ".bench_build/perfbench"

func main() {
	workload := flag.String("workload", "all", "workload to run: infer, train, sync, reproduce or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload, split over the rounds")
	trace := flag.Int("trace", 0, "1 runs traced segments too and reports the per-layer metrics")
	out := flag.String("out", "", "result JSON file (default "+outDir+"/<workload>-seed<n>[-trace].json)")
	compare := flag.Bool("compare", false, "compare the two result files given as arguments against the bounds")
	update := flag.String("update-golden", "", "recompute the golden outputs into this directory and exit")
	child := flag.Bool("child", false, "run one segment in this process (used by the run itself)")
	chrome := flag.String("chrome-trace", "", "with -child -trace 1, write the segment's Chrome trace here")
	probe := flag.Bool("tcp-probe", false, "run the TCP probe in this process (used by the run itself)")
	flag.Parse()

	switch {
	case *child:
		r := runSegment(segConfig{workload: *workload, seed: *seed, traced: *trace == 1,
			dur: time.Duration(*seconds * float64(time.Second)), chromeTrace: *chrome})
		emit(r)
		return
	case *probe:
		n, err := tcpProbe()
		if err != nil {
			fatal(err)
		}
		emit(n)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *update != "":
		if err := updateGolden(*update); err != nil {
			fatal(err)
		}
		return
	}

	ws := workloadNames
	if *workload != "all" {
		ws = []string{*workload}
		if !slices.Contains(workloadNames, *workload) {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
	}
	if *seconds <= 0 || *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{workloads: ws, seed: *seed, seconds: *seconds, trace: *trace == 1, procs: procs}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	printSummary(os.Stderr, res)
	if cfg.trace {
		for w, wr := range res.Workloads {
			if err := writeLayers(traceDir(cfg, w), w, wr, *seed); err != nil {
				fatal(err)
			}
		}
	}
	path := *out
	if path == "" {
		name := fmt.Sprintf("%s-seed%d", *workload, *seed)
		if cfg.trace {
			name += "-trace"
		}
		path = filepath.Join(outDir, name+".json")
	}
	if err := writeJSON(path, res); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)

	line, correct := resultLine(res, cfg.trace)
	emit(line)
	if !correct {
		os.Exit(1)
	}
}

// resultLine builds the one-line result: the end-to-end metrics, or the
// per-layer ones for a traced run. With several workloads each name is
// prefixed by its workload.
func resultLine(res *runResult, traced bool) (map[string]any, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	correct, attempted, failed := true, 0, 0
	for w, wr := range res.Workloads {
		correct = correct && wr.Correct
		attempted += wr.Attempted
		failed += wr.Failed
		name := func(m string) string {
			if len(res.Workloads) == 1 {
				return m
			}
			return w + "/" + m
		}
		specs, vals := endToEnd, wr.Metrics
		if traced {
			specs, vals = perLayer, wr.PerLayer
		}
		for _, s := range specs {
			metrics[name(s.Name)] = value{Value: vals[s.Name].Value, Unit: s.Unit}
		}
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, correct
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// emit prints v as one JSON line on standard output.
func emit(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
