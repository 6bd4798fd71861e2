package experiments

import (
	"fmt"

	"convmeter/internal/baselines"
	"convmeter/internal/bench"
	"convmeter/internal/core"
	"convmeter/internal/hwsim"
)

// inferenceScenario picks the paper's sweep, shrunk under Quick. A
// single CPU core is capped at batch 32: measuring VGG-16 at batch 2048
// would take a quarter hour per data point, which no benchmark campaign
// (including the paper's) would sweep.
func inferenceScenario(dev hwsim.Device, cfg Config) bench.InferenceScenario {
	sc := bench.DefaultInferenceScenario(dev, cfg.Seed)
	if dev.Name == "xeon" {
		sc.Batches = []int{1, 2, 4, 8, 16, 32}
	}
	if cfg.Quick {
		sc.Models = []string{"alexnet", "resnet18", "resnet50", "mobilenet_v2", "vgg11", "squeezenet1_0"}
		sc.Images = []int{64, 128, 224}
		sc.Batches = []int{1, 8, 64, 512}
		if dev.Name == "xeon" {
			sc.Batches = []int{1, 4, 16, 32}
		}
	}
	sc.Obs = cfg.Obs
	return sc
}

// Fig2 reproduces Figure 2: inference-time prediction quality using
// FLOPs alone, Inputs alone, Outputs alone, and the combined model.
func Fig2(cfg Config) (*Result, error) {
	samples, err := bench.CollectInference(inferenceScenario(hwsim.A100(), cfg))
	if err != nil {
		return nil, err
	}
	masks := []baselines.MetricMask{
		{F: true}, {I: true}, {O: true}, {F: true, I: true, O: true},
	}
	res := &Result{
		ID:    "fig2",
		Title: "Figure 2: inference prediction by metric combination (A100, LOMO)",
		Stats: map[string]float64{},
	}
	var rows [][]string
	for _, mask := range masks {
		mask := mask
		ev, err := lomoEval(cfg, func() (*core.Evaluation, error) {
			return baselines.EvaluateAblationLOMO(samples, mask)
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			mask.String(),
			fmt.Sprintf("%.3f", ev.Overall.R2),
			fmt.Sprintf("%.2f ms", ev.Overall.RMSE*1e3),
			fmt.Sprintf("%.3f", ev.Overall.NRMSE),
			fmt.Sprintf("%.3f", ev.Overall.MAPE),
		})
		res.Stats["mape_"+mask.String()] = ev.Overall.MAPE
		res.Stats["r2_"+mask.String()] = ev.Overall.R2
	}
	res.Text = table([]string{"Predictor", "R²", "RMSE", "NRMSE", "MAPE"}, rows)
	return res, nil
}

// perModelTable renders the paper's per-ConvNet error table layout.
func perModelTable(ev *core.Evaluation, rmseUnit string, rmseScale float64) string {
	var rows [][]string
	for _, name := range ev.Models() {
		rep := ev.PerModel[name]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.3f", rep.R2),
			fmt.Sprintf("%.3g %s", rep.RMSE*rmseScale, rmseUnit),
			fmt.Sprintf("%.3f", rep.NRMSE),
			fmt.Sprintf("%.3f", rep.MAPE),
		})
	}
	rows = append(rows, []string{
		"OVERALL",
		fmt.Sprintf("%.3f", ev.Overall.R2),
		fmt.Sprintf("%.3g %s", ev.Overall.RMSE*rmseScale, rmseUnit),
		fmt.Sprintf("%.3f", ev.Overall.NRMSE),
		fmt.Sprintf("%.3f", ev.Overall.MAPE),
	})
	return table([]string{"ConvNet", "R²", "RMSE", "NRMSE", "MAPE"}, rows)
}

// table1Devices lists Table 1's hardware in the paper's column order.
func table1Devices() []hwsim.Device {
	return []hwsim.Device{hwsim.XeonCore(), hwsim.A100()}
}

// table1Samples is Table 1's fit stage: collect the benchmark dataset
// for every device. Split out so the DAG runs collection and evaluation
// as separate, individually resumable nodes.
func table1Samples(cfg Config) (map[string][]core.Sample, error) {
	out := make(map[string][]core.Sample, 2)
	for _, dev := range table1Devices() {
		samples, err := bench.CollectInference(inferenceScenario(dev, cfg))
		if err != nil {
			return nil, err
		}
		out[dev.Name] = samples
	}
	return out, nil
}

// table1FromSamples is Table 1's LOMO stage: evaluate the collected
// dataset and render the table. Composing it after table1Samples is
// exactly Table1 — the DAG's staged path and the flat path must agree
// bit for bit.
func table1FromSamples(cfg Config, byDev map[string][]core.Sample) (*Result, error) {
	res := &Result{
		ID:    "table1",
		Title: "Table 1: per-ConvNet inference accuracy (LOMO)",
		Stats: map[string]float64{},
	}
	text := ""
	for _, dev := range table1Devices() {
		samples, ok := byDev[dev.Name]
		if !ok {
			return nil, fmt.Errorf("experiments: table1 samples missing device %s", dev.Name)
		}
		ev, err := lomoEval(cfg, func() (*core.Evaluation, error) {
			return core.EvaluateInferenceLOMO(samples)
		})
		if err != nil {
			return nil, err
		}
		unit, scale := "ms", 1e3
		if dev.Name == "xeon" {
			unit, scale = "s", 1.0
		}
		text += fmt.Sprintf("-- %s (%d points) --\n%s\n", dev.Name, len(samples), perModelTable(ev, unit, scale))
		res.Stats["r2_"+dev.Name] = ev.Overall.R2
		res.Stats["mape_"+dev.Name] = ev.Overall.MAPE
		res.Stats["nrmse_"+dev.Name] = ev.Overall.NRMSE
		res.Stats["rmse_"+dev.Name] = ev.Overall.RMSE
		res.Stats["points_"+dev.Name] = float64(len(samples))
	}
	res.Text = text
	return res, nil
}

// Table1 reproduces Table 1 / Figure 3: per-ConvNet inference prediction
// accuracy on the Xeon CPU and the A100 GPU under leave-one-model-out.
func Table1(cfg Config) (*Result, error) {
	samples, err := table1Samples(cfg)
	if err != nil {
		return nil, err
	}
	return table1FromSamples(cfg, samples)
}

// Table2 reproduces Table 2 / Figure 4: block-wise inference prediction
// on the A100, leave-one-block-out.
func Table2(cfg Config) (*Result, error) {
	sc := bench.DefaultBlockScenario(cfg.Seed)
	if cfg.Quick {
		sc.Scales = []float64{1, 2}
		sc.Batches = []int{1, 16, 256}
	}
	sc.Obs = cfg.Obs
	samples, err := bench.CollectBlocks(sc)
	if err != nil {
		return nil, err
	}
	ev, err := lomoEval(cfg, func() (*core.Evaluation, error) {
		return core.EvaluateInferenceLOMO(samples)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "table2",
		Title: "Table 2: block-wise inference accuracy on A100 (leave-one-block-out)",
		Text:  perModelTable(ev, "ms", 1e3),
		Stats: map[string]float64{
			"r2_overall":    ev.Overall.R2,
			"mape_overall":  ev.Overall.MAPE,
			"nrmse_overall": ev.Overall.NRMSE,
			"blocks":        float64(len(ev.PerModel)),
		},
	}
	for name, rep := range ev.PerModel {
		res.Stats["mape_"+name] = rep.MAPE
	}
	return res, nil
}
