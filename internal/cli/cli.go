// Package cli implements the convmeter command-line tool: model
// inspection (metrics, graph, dot), coefficient fitting with persistence,
// and inference/training/scalability prediction. It lives in a package of
// its own (cmd/convmeter is a thin shim) so every command is unit-tested.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"convmeter/internal/bench"
	"convmeter/internal/core"
	"convmeter/internal/graph"
	"convmeter/internal/hwsim"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
	"convmeter/internal/netsim"
	"convmeter/internal/obs"
	"convmeter/internal/tracefmt"
	"convmeter/internal/trainsim"
)

// Env carries the command environment, injectable for tests.
type Env struct {
	Stdout io.Writer
	Stderr io.Writer
}

// printf and printLn write best-effort console output. The CLI's
// contract is its exit code plus the error path on stderr; once a
// stdout write fails (closed pipe, full disk) there is no better
// channel left to report on, so the write error is discarded here —
// and only here, so convlint's droppederr stays meaningful everywhere
// else.
func printf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func printLn(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

// Run dispatches a full argument vector (without the program name) and
// returns the process exit code.
func Run(args []string, env Env) int {
	if env.Stdout == nil {
		env.Stdout = os.Stdout
	}
	if env.Stderr == nil {
		env.Stderr = os.Stderr
	}
	if len(args) == 0 {
		usage(env.Stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "models":
		for _, n := range models.Names() {
			printLn(env.Stdout, n)
		}
	case "blocks":
		for _, n := range models.BlockNames() {
			info, _ := models.Block(n)
			printf(env.Stdout, "%-22s from %-18s natural input %dx%dx%d\n",
				n, info.Source, info.InC, info.NaturalHW, info.NaturalHW)
		}
	case "metrics":
		err = runMetrics(rest, env)
	case "graph":
		err = runGraph(rest, env)
	case "dot":
		err = runDot(rest, env)
	case "dissect":
		err = runDissect(rest, env)
	case "timeline":
		err = runTimeline(rest, env)
	case "fit":
		err = runFit(rest, env)
	case "predict":
		err = runPredict(rest, env)
	case "train":
		err = runTrain(rest, env)
	case "scale":
		err = runScale(rest, env)
	case "help", "-h", "--help":
		usage(env.Stdout)
	default:
		printf(env.Stderr, "convmeter: unknown command %q\n\n", cmd)
		usage(env.Stderr)
		return 2
	}
	if err != nil {
		printLn(env.Stderr, "convmeter:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	printLn(w, `convmeter — ConvNet runtime & scalability prediction (ICPP'24 reproduction)

commands:
  models      list the ConvNet zoo
  blocks      list the named Table-2 blocks
  metrics     print the five ConvMeter metrics of a model
  graph       dump a model's computational graph as JSON
  dot         dump a model's computational graph as Graphviz DOT
  dissect     per-segment runtime breakdown of a model (the paper's title operation)
  timeline    Chrome-trace JSON of one simulated training step (Figure 1 structure)
  fit         fit a performance model and save its coefficients as JSON
  predict     predict inference time
  train       predict training step / epoch time
  scale       predict throughput vs node count (weak or strong scaling)`)
}

// modelFlags adds the common -model/-image flags.
func modelFlags(fs *flag.FlagSet) (*string, *int) {
	model := fs.String("model", "resnet50", "zoo model name (see `convmeter models`)")
	image := fs.Int("image", 224, "square input image size in pixels")
	return model, image
}

// parse runs the flag set in error-returning mode.
func parse(fs *flag.FlagSet, args []string, env Env) error {
	fs.SetOutput(env.Stderr)
	return fs.Parse(args)
}

func buildWithMetrics(model string, image int) (*graph.Graph, metrics.Metrics, error) {
	g, err := models.Build(model, image)
	if err != nil {
		return nil, metrics.Metrics{}, err
	}
	met, err := metrics.FromGraph(g)
	if err != nil {
		return nil, metrics.Metrics{}, err
	}
	return g, met, nil
}

func runMetrics(args []string, env Env) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	model, image := modelFlags(fs)
	if err := parse(fs, args, env); err != nil {
		return err
	}
	g, met, err := buildWithMetrics(*model, *image)
	if err != nil {
		return err
	}
	printf(env.Stdout, "model:    %s @ %dx%d\n", *model, *image, *image)
	printf(env.Stdout, "FLOPs:    %.4g\n", met.FLOPs)
	printf(env.Stdout, "Inputs:   %.4g elements\n", met.Inputs)
	printf(env.Stdout, "Outputs:  %.4g elements\n", met.Outputs)
	printf(env.Stdout, "Weights:  %.0f parameters\n", met.Weights)
	printf(env.Stdout, "Layers:   %.0f parameterised layers\n", met.Layers)
	printf(env.Stdout, "Graph:    %d nodes\n", len(g.Nodes))
	return nil
}

func runGraph(args []string, env Env) error {
	fs := flag.NewFlagSet("graph", flag.ContinueOnError)
	model, image := modelFlags(fs)
	if err := parse(fs, args, env); err != nil {
		return err
	}
	g, err := models.Build(*model, *image)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(env.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

func runDot(args []string, env Env) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	model, image := modelFlags(fs)
	if err := parse(fs, args, env); err != nil {
		return err
	}
	g, err := models.Build(*model, *image)
	if err != nil {
		return err
	}
	return g.WriteDOT(env.Stdout)
}

// segment is a contiguous run of nodes sharing a top-level name prefix
// (e.g. ResNet's stem / layer1..4 / head).
type segment struct {
	name     string
	from, to int
}

// segments groups the graph's nodes by their top-level name prefix.
func segments(g *graph.Graph) []segment {
	var out []segment
	prefix := func(name string) string {
		for i := 0; i < len(name); i++ {
			if name[i] == '.' {
				return name[:i]
			}
		}
		return name
	}
	for i := 1; i < len(g.Nodes); i++ { // skip the input node
		p := prefix(g.Nodes[i].Name)
		if len(out) > 0 && out[len(out)-1].name == p {
			out[len(out)-1].to = i + 1
			continue
		}
		out = append(out, segment{name: p, from: i, to: i + 1})
	}
	return out
}

// runDissect prints the per-segment breakdown: metrics plus the fitted
// model's predicted time share — the block-level "dissection" the paper
// demonstrates in §4.1.2 for NAS and bottleneck hunting.
func runDissect(args []string, env Env) error {
	fs := flag.NewFlagSet("dissect", flag.ContinueOnError)
	model, image := modelFlags(fs)
	batch := fs.Int("batch", 64, "batch size")
	device := fs.String("device", "a100", "simulated device when fitting fresh")
	data := fs.String("data", "", "benchmark dataset CSV")
	coeff := fs.String("coeff", "", "fitted coefficients JSON")
	seed := fs.Int64("seed", 1, "simulator seed")
	oo := addObsFlags(fs)
	if err := parse(fs, args, env); err != nil {
		return err
	}
	o := oo.bundle()
	g, met, err := buildWithMetrics(*model, *image)
	if err != nil {
		return err
	}
	m, err := loadInferenceModel(*coeff, *data, *device, *seed, o)
	if err != nil {
		return err
	}
	total := m.Predict(met, float64(*batch))
	segs := segments(g)
	type row struct {
		seg  segment
		met  metrics.Metrics
		pred float64
	}
	rows := make([]row, 0, len(segs))
	sum := 0.0
	for _, s := range segs {
		sm, err := metrics.FromGraphRange(g, s.from, s.to)
		if err != nil {
			return err
		}
		p := float64(m.Predict(sm, float64(*batch)))
		if p < 0 {
			p = 0
		}
		rows = append(rows, row{seg: s, met: sm, pred: p})
		sum += p
	}
	printf(env.Stdout, "dissection of %s @ %dpx, batch %d (predicted total %.3f ms):\n",
		*model, *image, *batch, total*1e3)
	printf(env.Stdout, "  %-14s %10s %10s %10s %9s %7s\n",
		"segment", "GFLOPs", "In(M)", "Out(M)", "pred ms", "share")
	for _, r := range rows {
		share := 0.0
		if sum > 0 {
			share = r.pred / sum
		}
		printf(env.Stdout, "  %-14s %10.2f %10.2f %10.2f %9.3f %6.1f%%\n",
			r.seg.name,
			float64(r.met.FLOPs)*float64(*batch)/1e9,
			float64(r.met.Inputs)*float64(*batch)/1e6,
			float64(r.met.Outputs)*float64(*batch)/1e6,
			r.pred*1e3, share*100)
	}
	return oo.export(o)
}

// runTimeline emits a Chrome trace of one simulated training step.
func runTimeline(args []string, env Env) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	model, image := modelFlags(fs)
	batch := fs.Int("batch", 64, "per-device batch size")
	gpus := fs.Int("gpus", 16, "total GPUs")
	nodes := fs.Int("nodes", 4, "physical nodes")
	out := fs.String("out", "", "output trace path (default stdout)")
	if err := parse(fs, args, env); err != nil {
		return err
	}
	g, err := models.Build(*model, *image)
	if err != nil {
		return err
	}
	sim, err := trainsim.New(trainsim.Config{Device: hwsim.A100(), Fabric: netsim.Cluster(), Seed: 1})
	if err != nil {
		return err
	}
	events, phases, err := sim.Timeline(g, *batch, *gpus, *nodes)
	if err != nil {
		return err
	}
	w := env.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := tracefmt.WriteChromeTrace(w, events); err != nil {
		return err
	}
	printf(env.Stderr, "step %.3f ms (fwd %.3f, bwd %.3f, grad %.3f) — open in chrome://tracing or Perfetto\n",
		phases.Iter*1e3, phases.Fwd*1e3, phases.Bwd*1e3, phases.Grad*1e3)
	return nil
}

// deviceByName resolves the simulated device profiles.
func deviceByName(name string) (hwsim.Device, error) {
	switch name {
	case "a100":
		return hwsim.A100(), nil
	case "xeon":
		return hwsim.XeonCore(), nil
	case "jetson":
		return hwsim.JetsonLike(), nil
	case "pi":
		return hwsim.PiLike(), nil
	default:
		return hwsim.Device{}, fmt.Errorf("unknown device %q (a100, xeon, jetson, pi)", name)
	}
}

// loadSamples reads a CSV dataset or collects a simulated sweep.
func loadSamples(dataPath string, collect func() ([]core.Sample, error)) ([]core.Sample, error) {
	if dataPath == "" {
		return collect()
	}
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bench.ReadCSV(f)
}

func runFit(args []string, env Env) error {
	fs := flag.NewFlagSet("fit", flag.ContinueOnError)
	kind := fs.String("kind", "inference", "inference, train-single or train-multi")
	device := fs.String("device", "a100", "simulated device for dataset generation")
	data := fs.String("data", "", "benchmark dataset CSV (default: simulate)")
	out := fs.String("out", "", "write fitted coefficients to this JSON file (default stdout)")
	seed := fs.Int64("seed", 1, "simulator seed when no dataset is given")
	stats := fs.Bool("stats", false, "also print per-coefficient standard errors and t-values (inference only)")
	oo := addObsFlags(fs)
	if err := parse(fs, args, env); err != nil {
		return err
	}
	o := oo.bundle()
	var payload any
	switch *kind {
	case "inference":
		samples, err := loadSamples(*data, func() ([]core.Sample, error) {
			dev, err := deviceByName(*device)
			if err != nil {
				return nil, err
			}
			sc := bench.DefaultInferenceScenario(dev, *seed)
			sc.Obs = o
			return bench.CollectInference(sc)
		})
		if err != nil {
			return err
		}
		m, cs, err := core.InferenceCoefStats(samples)
		if err != nil {
			return err
		}
		if *stats {
			names := []string{"c1 (FLOPs)", "c2 (Inputs)", "c3 (Outputs)", "c4 (intercept)"}
			printf(env.Stderr, "coefficient statistics (%d samples, %d dof):\n", len(samples), cs.DoF)
			for j, name := range names {
				printf(env.Stderr, "  %-14s %12.4g ± %-10.3g t=%8.1f\n",
					name, cs.Estimate[j], cs.StdErr[j], cs.TValue[j])
			}
		}
		payload = m
	case "train-single", "train-multi":
		samples, err := loadSamples(*data, func() ([]core.Sample, error) {
			sc := bench.DefaultSingleGPUScenario(*seed)
			if *kind == "train-multi" {
				sc = bench.DefaultDistributedScenario(*seed)
			}
			sc.Obs = o
			return bench.CollectTraining(sc)
		})
		if err != nil {
			return err
		}
		m, err := core.FitTraining(samples)
		if err != nil {
			return err
		}
		payload = m
	default:
		return fmt.Errorf("unknown fit kind %q", *kind)
	}
	w := env.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		return err
	}
	return oo.export(o)
}

// loadInferenceModel builds a predictor from -coeff JSON, -data CSV, or a
// simulated sweep.
func loadInferenceModel(coeffPath, dataPath, device string, seed int64, o *obs.Obs) (*core.InferenceModel, error) {
	if coeffPath != "" {
		data, err := os.ReadFile(coeffPath)
		if err != nil {
			return nil, err
		}
		var m core.InferenceModel
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, err
		}
		return &m, nil
	}
	samples, err := loadSamples(dataPath, func() ([]core.Sample, error) {
		dev, err := deviceByName(device)
		if err != nil {
			return nil, err
		}
		sc := bench.DefaultInferenceScenario(dev, seed)
		sc.Obs = o
		return bench.CollectInference(sc)
	})
	if err != nil {
		return nil, err
	}
	return core.FitInference(samples)
}

// loadTrainingModel mirrors loadInferenceModel for training predictors.
func loadTrainingModel(coeffPath, dataPath string, multi bool, seed int64) (*core.TrainingModel, error) {
	if coeffPath != "" {
		data, err := os.ReadFile(coeffPath)
		if err != nil {
			return nil, err
		}
		var m core.TrainingModel
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, err
		}
		return &m, nil
	}
	samples, err := loadSamples(dataPath, func() ([]core.Sample, error) {
		if multi {
			return bench.CollectTraining(bench.DefaultDistributedScenario(seed))
		}
		return bench.CollectTraining(bench.DefaultSingleGPUScenario(seed))
	})
	if err != nil {
		return nil, err
	}
	return core.FitTraining(samples)
}

func runPredict(args []string, env Env) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	model, image := modelFlags(fs)
	batch := fs.Int("batch", 64, "batch size")
	device := fs.String("device", "a100", "simulated device when fitting fresh")
	data := fs.String("data", "", "benchmark dataset CSV")
	coeff := fs.String("coeff", "", "fitted coefficients JSON (from `convmeter fit`)")
	seed := fs.Int64("seed", 1, "simulator seed")
	oo := addObsFlags(fs)
	if err := parse(fs, args, env); err != nil {
		return err
	}
	o := oo.bundle()
	_, met, err := buildWithMetrics(*model, *image)
	if err != nil {
		return err
	}
	m, err := loadInferenceModel(*coeff, *data, *device, *seed, o)
	if err != nil {
		return err
	}
	t := float64(m.Predict(met, float64(*batch)))
	printf(env.Stdout, "predicted inference time for %s @ %dpx, batch %d: %.4g ms (%.1f images/s)\n",
		*model, *image, *batch, t*1e3, float64(*batch)/t)
	return oo.export(o)
}

func runTrain(args []string, env Env) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	model, image := modelFlags(fs)
	batch := fs.Int("batch", 64, "per-device batch size")
	gpus := fs.Int("gpus", 4, "total GPUs")
	nodes := fs.Int("nodes", 1, "physical nodes")
	dataset := fs.Int("dataset", 1281167, "dataset size in images (default ImageNet-1k)")
	data := fs.String("data", "", "benchmark dataset CSV")
	coeff := fs.String("coeff", "", "fitted coefficients JSON")
	seed := fs.Int64("seed", 1, "simulator seed")
	if err := parse(fs, args, env); err != nil {
		return err
	}
	_, met, err := buildWithMetrics(*model, *image)
	if err != nil {
		return err
	}
	tm, err := loadTrainingModel(*coeff, *data, *nodes > 1, *seed)
	if err != nil {
		return err
	}
	p := tm.PredictPhases(met, float64(*batch), *gpus, *nodes)
	printf(env.Stdout, "training-step prediction for %s @ %dpx, batch %d/device on %d GPU(s) over %d node(s):\n",
		*model, *image, *batch, *gpus, *nodes)
	printf(env.Stdout, "  forward:   %8.3f ms\n", p.Fwd*1e3)
	printf(env.Stdout, "  backward:  %8.3f ms\n", p.Bwd*1e3)
	printf(env.Stdout, "  gradient:  %8.3f ms\n", p.Grad*1e3)
	printf(env.Stdout, "  step:      %8.3f ms  (%.1f images/s)\n", p.Iter*1e3,
		float64(*batch**gpus)/float64(p.Iter))
	epoch := tm.PredictEpoch(met, *dataset, float64(*batch), *gpus, *nodes)
	printf(env.Stdout, "  epoch over %d images: %.1f s\n", *dataset, epoch)
	return nil
}

func runScale(args []string, env Env) error {
	fs := flag.NewFlagSet("scale", flag.ContinueOnError)
	model, image := modelFlags(fs)
	batch := fs.Int("batch", 64, "per-device batch size (weak scaling)")
	globalBatch := fs.Int("global-batch", 0, "fixed global batch (enables strong scaling)")
	maxNodes := fs.Int("max-nodes", 16, "largest node count")
	gpn := fs.Int("gpus-per-node", 4, "GPUs per node")
	data := fs.String("data", "", "benchmark dataset CSV")
	coeff := fs.String("coeff", "", "fitted coefficients JSON")
	seed := fs.Int64("seed", 1, "simulator seed")
	if err := parse(fs, args, env); err != nil {
		return err
	}
	_, met, err := buildWithMetrics(*model, *image)
	if err != nil {
		return err
	}
	tm, err := loadTrainingModel(*coeff, *data, true, *seed)
	if err != nil {
		return err
	}
	var nodeCounts []int
	for n := 1; n <= *maxNodes; n *= 2 {
		nodeCounts = append(nodeCounts, n)
	}
	if *globalBatch > 0 {
		points, err := tm.PredictStrongScaling(met, float64(*globalBatch), *gpn, nodeCounts)
		if err != nil {
			return err
		}
		printf(env.Stdout, "strong scaling of %s @ %dpx, global batch %d, %d GPUs/node:\n",
			*model, *image, *globalBatch, *gpn)
		for _, p := range points {
			printf(env.Stdout, "  %3d node(s): step %8.3f ms, %9.0f images/s, speedup %.2fx (b=%.3g/device)\n",
				p.Nodes, p.Iter*1e3, p.Throughput, p.Speedup, p.BatchPerDevice)
		}
		return nil
	}
	printf(env.Stdout, "weak scaling of %s @ %dpx, batch %d/device, %d GPUs/node:\n",
		*model, *image, *batch, *gpn)
	for _, n := range nodeCounts {
		tput := tm.PredictThroughput(met, float64(*batch), n**gpn, n)
		printf(env.Stdout, "  %3d node(s): %9.0f images/s\n", n, tput)
	}
	tp, err := tm.TurningPoint(met, float64(*batch), *gpn, *maxNodes, 0.10)
	if err != nil {
		return err
	}
	printf(env.Stdout, "diminishing-return turning point (<10%% gain per added node): %d node(s)\n", tp)
	return nil
}
