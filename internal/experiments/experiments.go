// Package experiments reproduces every table and figure of the paper's
// evaluation section end-to-end: it generates the benchmark datasets via
// the simulators, fits ConvMeter and the baselines, runs the paper's
// leave-one-model-out protocol, and renders the resulting tables/series.
// DESIGN.md carries the experiment index; EXPERIMENTS.md records
// paper-vs-measured numbers produced by cmd/experiments.
package experiments

import (
	"encoding/csv"
	"fmt"
	"strings"
	"text/tabwriter"

	"convmeter/internal/driftwatch"
	"convmeter/internal/obs"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives every simulator and fitting RNG; a fixed seed makes the
	// full experiment suite reproducible.
	Seed int64
	// Quick shrinks the sweeps for use in unit tests and testing.B
	// benchmarks; headline numbers shift slightly but every shape
	// conclusion must still hold.
	Quick bool
	// Obs, when non-nil, receives runtime telemetry: per-experiment spans
	// and everything the instrumented layers underneath (bench, exec,
	// allreduce, train) record. Nil disables telemetry at zero cost.
	Obs *obs.Obs
	// FaultsSeed drives the chaos experiment's fault schedule; 0 falls
	// back to Seed. The same FaultsSeed reproduces the identical schedule.
	FaultsSeed int64
	// FaultsProfile names the fault profile for the chaos experiment
	// (none, light, heavy, chaos, slowdown); empty means the experiment's
	// default.
	FaultsProfile string
	// Drift, when non-nil, receives the chaos experiment's step times,
	// each paired with the fitted training model's prediction, once the
	// run ends. Nil skips the check.
	Drift *driftwatch.Stream
}

// Result is the outcome of one experiment: a rendered table plus the
// headline statistics used by tests and EXPERIMENTS.md. Figure
// experiments additionally attach their raw data series as CSV documents
// (keyed by series name) so the paper-style plots can be regenerated with
// any plotting tool.
type Result struct {
	ID     string
	Title  string
	Text   string
	Stats  map[string]float64
	Series map[string]string
}

// csvDoc renders rows as a CSV document with the given header. The
// writers below target an in-memory strings.Builder, whose Write never
// fails, so csv/tabwriter errors are impossible; the discards are
// explicit so convlint's droppederr holds everywhere real I/O happens.
func csvDoc(header []string, rows [][]string) string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write(header)
	_ = w.WriteAll(rows)
	w.Flush()
	return sb.String()
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	_, _ = fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		_, _ = fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	_ = w.Flush()
	return sb.String()
}

// Runner is a named experiment entry point.
type Runner struct {
	ID   string
	Desc string
	Run  func(Config) (*Result, error)
}

// Runners lists every experiment in the paper's order.
func Runners() []Runner {
	return []Runner{
		{"fig2", "Inference prediction by metric combination (Figure 2)", Fig2},
		{"table1", "Per-ConvNet inference accuracy, CPU and GPU (Table 1 / Figure 3)", Table1},
		{"table2", "Block-wise inference accuracy on A100 (Table 2 / Figure 4)", Table2},
		{"table3single", "Single-GPU training-step phases (Table 3 left / Figure 5)", Table3Single},
		{"fig6", "ConvMeter vs DIPPM comparison (Figure 6)", Fig6},
		{"table3multi", "Distributed training-step phases (Table 3 right / Figure 7)", Table3Multi},
		{"fig8", "Throughput vs node count (Figure 8)", Fig8},
		{"fig9", "Throughput vs batch size (Figure 9)", Fig9},
		{"ablation", "Modeling-effort and design ablations (§3.4 / Table 4 context)", Ablation},
		{"extvit", "Extension: vision transformers (paper §6 outlook)", ExtViT},
		{"extedge", "Extension: edge processors (paper §6 outlook)", ExtEdge},
		{"extpipeline", "Extension: pipeline model parallelism (paper §3 note)", ExtPipeline},
		{"extreal", "Extension: real wall-clock measurements on the host CPU", ExtReal},
		{"exttrainreal", "Extension: real data-parallel training run (telemetry fixture)", ExtTrainReal},
		{"exttrainfaults", "Extension: chaos run — resilient training under injected faults", ExtTrainFaults},
		{"extstrong", "Extension: strong scaling at a fixed global batch (§4.3 capability)", ExtStrong},
	}
}

// IDs lists every experiment id in the paper's order.
func IDs() []string {
	rs := Runners()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Result, error) {
	for _, r := range Runners() {
		if r.ID == id {
			return runOne(r, cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
