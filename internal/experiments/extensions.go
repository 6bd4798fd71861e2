package experiments

// Extension experiments — the paper's future-work directions, built on the
// same pipeline: vision transformers, edge processors, and pipeline model
// parallelism (§3's "can be extended to support other parallelization
// strategies" note and §6's outlook). They are not reproductions of paper
// figures; EXPERIMENTS.md marks them as extensions.

import (
	"fmt"
	"math"

	"convmeter/internal/bench"
	"convmeter/internal/core"
	"convmeter/internal/hwreal"
	"convmeter/internal/hwsim"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
	"convmeter/internal/netsim"
	"convmeter/internal/pipesim"
	"convmeter/internal/trainsim"
)

// vitModels is the transformer zoo slice.
func vitModels() []string { return []string{"vit_b_16", "vit_b_32", "vit_l_16"} }

// ExtViT applies the unchanged ConvMeter pipeline to vision transformers:
// the zoo's three ViTs join the ConvNets in one A100 inference sweep and
// each ViT is predicted with leave-one-model-out.
func ExtViT(cfg Config) (*Result, error) {
	sc := bench.DefaultInferenceScenario(hwsim.A100(), cfg.Seed)
	// ViT position embeddings require patch-aligned image sizes.
	sc.Images = []int{64, 128, 160, 224}
	sc.Models = append(append([]string{}, sc.Models...), vitModels()...)
	if cfg.Quick {
		sc.Models = append([]string{"resnet18", "resnet50", "mobilenet_v2", "vgg11"}, vitModels()...)
		sc.Batches = []int{1, 8, 64, 512}
	}
	sc.Obs = cfg.Obs
	samples, err := bench.CollectInference(sc)
	if err != nil {
		return nil, err
	}
	ev, err := core.EvaluateInferenceLOMO(samples)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "extvit",
		Title: "Extension: inference prediction for vision transformers (A100, LOMO)",
		Stats: map[string]float64{"r2_overall": ev.Overall.R2, "mape_overall": ev.Overall.MAPE},
	}
	var rows [][]string
	for _, name := range vitModels() {
		rep, ok := ev.PerModel[name]
		if !ok {
			return nil, fmt.Errorf("extvit: %s missing from evaluation", name)
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.3f", rep.R2),
			fmt.Sprintf("%.3g ms", rep.RMSE*1e3),
			fmt.Sprintf("%.3f", rep.NRMSE),
			fmt.Sprintf("%.3f", rep.MAPE),
		})
		res.Stats["mape_"+name] = rep.MAPE
		res.Stats["r2_"+name] = rep.R2
	}
	res.Text = "ViTs predicted as unseen models from a mixed ConvNet+ViT sweep:\n" +
		table([]string{"Model", "R²", "RMSE", "NRMSE", "MAPE"}, rows) +
		fmt.Sprintf("\nOverall sweep (%d points): %s\n", len(samples), ev.Overall)
	return res, nil
}

// ExtEdge evaluates ConvMeter on simulated edge processors (a Jetson-like
// embedded GPU and a Pi-like ARM core) — the paper's "edge processors ...
// with limited resources" outlook. Edge memory limits shrink the feasible
// sweep automatically.
func ExtEdge(cfg Config) (*Result, error) {
	res := &Result{
		ID:    "extedge",
		Title: "Extension: inference prediction on edge processors (LOMO)",
		Stats: map[string]float64{},
	}
	text := ""
	for _, dev := range []hwsim.Device{hwsim.JetsonLike(), hwsim.PiLike()} {
		sc := bench.DefaultInferenceScenario(dev, cfg.Seed)
		sc.Batches = []int{1, 2, 4, 8, 16, 32} // edge inference is small-batch
		if cfg.Quick {
			sc.Models = []string{
				"resnet18", "resnet50", "vgg11", "densenet121",
				"mobilenet_v2", "squeezenet1_0", "efficientnet_b0", "regnet_x_400mf",
			}
			sc.Images = []int{64, 128, 224}
			sc.Batches = []int{1, 4, 16, 32}
		}
		samples, err := bench.CollectInference(sc)
		if err != nil {
			return nil, err
		}
		ev, err := core.EvaluateInferenceLOMO(samples)
		if err != nil {
			return nil, err
		}
		text += fmt.Sprintf("-- %s (%d points) --\n  overall: %s\n", dev.Name, len(samples), ev.Overall)
		res.Stats["r2_"+dev.Name] = ev.Overall.R2
		res.Stats["mape_"+dev.Name] = ev.Overall.MAPE
	}
	res.Text = text
	return res, nil
}

// ExtStrong exercises the strong-scaling capability the paper claims in
// §4.3: a *fixed global batch* spread over growing node counts, the
// per-device mini-batch shrinking as b = G/N. Predictions (which never
// ran a benchmark at those fractional batches) are compared against the
// training simulator.
func ExtStrong(cfg Config) (*Result, error) {
	fitSamples, err := bench.CollectTraining(distributedScenario(cfg))
	if err != nil {
		return nil, err
	}
	sim, err := trainsim.New(trainsim.Config{
		Device: hwsim.A100(), Fabric: netsim.Cluster(),
		NoiseSigma: 0.06, CommNoiseSigma: 0.16, Seed: cfg.Seed + 300,
	})
	if err != nil {
		return nil, err
	}
	const (
		globalBatch = 1024
		gpn         = 4
	)
	nodeCounts := []int{1, 2, 4, 8}
	modelSet := []string{"resnet50", "vgg16"}
	if cfg.Quick {
		modelSet = []string{"resnet50"}
	}
	res := &Result{
		ID:    "extstrong",
		Title: "Extension: strong scaling — fixed global batch 1024 over node counts (§4.3 capability)",
		Stats: map[string]float64{},
	}
	var rows [][]string
	for _, name := range modelSet {
		g, err := models.Build(name, 128)
		if err != nil {
			return nil, err
		}
		met, err := metrics.FromGraph(g)
		if err != nil {
			return nil, err
		}
		train, _ := core.Split(fitSamples, name)
		tm, err := core.FitTraining(train)
		if err != nil {
			return nil, err
		}
		points, err := tm.PredictStrongScaling(met, globalBatch, gpn, nodeCounts)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			// Simulated ground truth at the same integer per-device batch.
			b := int(p.BatchPerDevice)
			meas, err := sim.TrainStepExact(g, b, p.Devices, p.Nodes)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{
				name, fmt.Sprintf("%d", p.Nodes), fmt.Sprintf("%.0f", p.BatchPerDevice),
				fmt.Sprintf("%.2f ms", meas.Iter*1e3),
				fmt.Sprintf("%.2f ms", p.Iter*1e3),
				fmt.Sprintf("%.2fx", p.Speedup),
			})
			res.Stats[fmt.Sprintf("pred_iter_%s_n%d", name, p.Nodes)] = float64(p.Iter)
			res.Stats[fmt.Sprintf("sim_iter_%s_n%d", name, p.Nodes)] = meas.Iter
			res.Stats[fmt.Sprintf("speedup_%s_n%d", name, p.Nodes)] = p.Speedup
		}
	}
	res.Text = table([]string{"Model", "Nodes", "b/device", "Sim step", "Pred step", "Pred speedup"}, rows) +
		"\nSpeedups are sub-linear: shrinking per-device batches lower device\nutilisation while the communication terms grow with N.\n"
	return res, nil
}

// ExtReal runs the complete paper methodology on *real* hardware: actual
// wall-clock measurements of the Go-native execution engine (the "gocpu"
// device — the machine running this process), fitted and evaluated with
// the unchanged pipeline. It demonstrates that the simulators are only
// dataset generators: genuine measurements plug into the same code.
func ExtReal(cfg Config) (*Result, error) {
	sc := hwreal.DefaultScenario(cfg.Seed)
	if cfg.Quick {
		sc.Models = []string{"squeezenet1_1", "mobilenet_v3_small", "resnet18"}
		sc.Images = []int{32}
		sc.Batches = []int{1, 2, 4}
		sc.Reps = 1
	}
	samples, err := hwreal.Collect(sc)
	if err != nil {
		return nil, err
	}
	ev, err := core.EvaluateInferenceLOMO(samples)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "extreal",
		Title: "Extension: real wall-clock measurements on the host CPU (gocpu, LOMO)",
		Stats: map[string]float64{
			"r2_overall":   ev.Overall.R2,
			"mape_overall": ev.Overall.MAPE,
			"points":       float64(len(samples)),
		},
	}
	var rows [][]string
	for _, name := range ev.Models() {
		rep := ev.PerModel[name]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.3f", rep.R2),
			fmt.Sprintf("%.3g ms", rep.RMSE*1e3),
			fmt.Sprintf("%.3f", rep.MAPE),
		})
		res.Stats["mape_"+name] = rep.MAPE
	}
	res.Text = fmt.Sprintf("Measured %d real forward passes on %s:\n%s\noverall: %s\n",
		len(samples), hwreal.DeviceName,
		table([]string{"Model", "R²", "RMSE", "MAPE"}, rows), ev.Overall)
	return res, nil
}

// ExtPipeline validates the pipeline-model-parallel extension: the
// block-wise fitted model predicts per-stage times that are composed into
// pipeline throughput and compared against the pipeline simulator.
func ExtPipeline(cfg Config) (*Result, error) {
	blockSc := bench.DefaultBlockScenario(cfg.Seed)
	if cfg.Quick {
		blockSc.Scales = []float64{1, 2}
		blockSc.Batches = []int{1, 16, 256}
	}
	blockSamples, err := bench.CollectBlocks(blockSc)
	if err != nil {
		return nil, err
	}
	model, err := core.FitInference(blockSamples)
	if err != nil {
		return nil, err
	}
	pred := &pipesim.Predictor{Model: model, Link: pipesim.NVLink()}
	sim := hwsim.NewSimulator(hwsim.A100(), 0, cfg.Seed)
	res := &Result{
		ID:    "extpipeline",
		Title: "Extension: pipeline model parallelism via block-wise prediction",
		Stats: map[string]float64{},
	}
	modelSet := []string{"resnet50", "vgg16", "densenet121"}
	if cfg.Quick {
		modelSet = []string{"resnet50", "vgg16"}
	}
	const (
		batch      = 64
		microBatch = 8
	)
	var rows [][]string
	var errs []float64
	for _, name := range modelSet {
		g, err := models.Build(name, 224)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{1, 2, 4} {
			stages, err := pipesim.Partition(g, k)
			if err != nil {
				return nil, err
			}
			p, err := pred.Predict(stages, batch, microBatch)
			if err != nil {
				return nil, err
			}
			m, err := pipesim.Simulate(sim, g, stages, pipesim.NVLink(), batch, microBatch)
			if err != nil {
				return nil, err
			}
			rel := math.Abs(p-m) / m
			errs = append(errs, rel)
			rows = append(rows, []string{
				name, fmt.Sprintf("%d", k),
				fmt.Sprintf("%.0f", float64(batch)/m),
				fmt.Sprintf("%.0f", float64(batch)/p),
				fmt.Sprintf("%.2f", rel),
			})
			res.Stats[fmt.Sprintf("simulated_%s_k%d", name, k)] = float64(batch) / m
			res.Stats[fmt.Sprintf("predicted_%s_k%d", name, k)] = float64(batch) / p
		}
		bestK, bestT, err := pred.BestStageCount(g, 6, batch, microBatch)
		if err != nil {
			return nil, err
		}
		res.Stats["bestk_"+name] = float64(bestK)
		rows = append(rows, []string{name, "best", fmt.Sprintf("k=%d", bestK), fmt.Sprintf("%.0f", bestT), ""})
	}
	mape := 0.0
	for _, e := range errs {
		mape += e
	}
	mape /= float64(len(errs))
	res.Stats["series_mape"] = mape
	res.Text = table([]string{"Model", "Stages", "Sim img/s", "Pred img/s", "RelErr"}, rows) +
		fmt.Sprintf("\nMean relative error of pipeline prediction vs simulation: %.3f\n", mape)
	return res, nil
}
