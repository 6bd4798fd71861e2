package experiments

import (
	"fmt"
	"math"

	"convmeter/internal/bench"
	"convmeter/internal/core"
	"convmeter/internal/graph"
	"convmeter/internal/hwsim"
	"convmeter/internal/linalg"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
	"convmeter/internal/netsim"
	"convmeter/internal/trainsim"
)

// measureRepeated returns the mean and standard deviation of repeated
// noisy training-step throughput measurements — the error bars of the
// paper's Figures 8 and 9.
func measureRepeated(sim *trainsim.Simulator, g *graph.Graph, batch, devices, nodes, reps int) (mean, std float64, err error) {
	vals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		p, err := sim.TrainStep(g, batch, devices, nodes)
		if err != nil {
			return 0, 0, err
		}
		vals = append(vals, trainsim.Throughput(p, batch, devices))
	}
	return linalg.Mean(vals), linalg.StdDev(vals), nil
}

// Fig8 reproduces Figure 8: predicted vs measured training throughput
// (images/s) across node counts at fixed image size 128 and per-device
// batch 64, with the evaluated ConvNet held out of the fit.
func Fig8(cfg Config) (*Result, error) {
	const (
		image = 128
		batch = 64
	)
	nodeCounts := []int{1, 2, 4, 8, 16}
	reps := 5
	modelSet := bench.ScalingModels()
	if cfg.Quick {
		nodeCounts = []int{1, 4, 16}
		modelSet = []string{"alexnet", "resnet50", "mobilenet_v2"}
		reps = 3
	}
	// Fit dataset: the distributed campaign.
	fitSamples, err := bench.CollectTraining(distributedScenario(cfg))
	if err != nil {
		return nil, err
	}
	sim, err := trainsim.New(trainsim.Config{
		Device: hwsim.A100(), Fabric: netsim.Cluster(),
		NoiseSigma: 0.06, CommNoiseSigma: 0.16, Seed: cfg.Seed + 100,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig8",
		Title:  "Figure 8: throughput (img/s) vs node count, image 128, batch 64 (held-out models)",
		Stats:  map[string]float64{},
		Series: map[string]string{},
	}
	var rows, csvRows [][]string
	var allMeas, allPred []float64
	for _, name := range modelSet {
		g, err := models.Build(name, image)
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
		for _, n := range nodeCounts {
			devices := n * 4
			meanT, stdT, err := measureRepeated(sim, g, batch, devices, n, reps)
			if err != nil {
				return nil, err
			}
			pred := tm.PredictThroughput(met, batch, devices, n)
			rows = append(rows, []string{
				name, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.0f ± %.0f", meanT, stdT),
				fmt.Sprintf("%.0f", pred),
			})
			csvRows = append(csvRows, []string{
				name, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.1f", meanT), fmt.Sprintf("%.1f", stdT), fmt.Sprintf("%.1f", pred),
			})
			allMeas = append(allMeas, meanT)
			allPred = append(allPred, pred)
			res.Stats[fmt.Sprintf("measured_%s_n%d", name, n)] = meanT
			res.Stats[fmt.Sprintf("predicted_%s_n%d", name, n)] = pred
		}
	}
	// Headline: how well predicted series track measured ones.
	mape := 0.0
	for i := range allMeas {
		mape += math.Abs(allPred[i]-allMeas[i]) / allMeas[i]
	}
	mape /= float64(len(allMeas))
	res.Stats["series_mape"] = mape
	res.Series["fig8"] = csvDoc([]string{"model", "nodes", "measured_imgs", "measured_std", "predicted_imgs"}, csvRows)
	res.Text = table([]string{"ConvNet", "Nodes", "Measured img/s", "Predicted img/s"}, rows) +
		fmt.Sprintf("\nSeries MAPE of prediction vs measured mean: %.3f\n", mape)
	return res, nil
}

// Fig9 reproduces Figure 9: throughput vs per-device batch size on a
// single A100 at fixed image size, including batch sizes beyond the
// fitted sweep (and, for large models, beyond device memory — where only
// the prediction exists, one of ConvMeter's selling points).
func Fig9(cfg Config) (*Result, error) {
	const image = 128
	batches := []int{1, 4, 16, 64, 256, 1024, 2048, 4096}
	reps := 5
	modelSet := bench.ScalingModels()
	if cfg.Quick {
		batches = []int{4, 64, 1024, 4096}
		modelSet = []string{"resnet18", "resnet50", "squeezenet1_0"}
		reps = 3
	}
	fitSamples, err := bench.CollectTraining(singleGPUScenario(cfg))
	if err != nil {
		return nil, err
	}
	sim, err := trainsim.New(trainsim.Config{
		Device: hwsim.A100(), Fabric: netsim.Cluster(),
		NoiseSigma: 0.06, CommNoiseSigma: 0.06, Seed: cfg.Seed + 200,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig9",
		Title:  "Figure 9: throughput (img/s) vs batch size on one A100, image 128 (held-out models)",
		Stats:  map[string]float64{},
		Series: map[string]string{},
	}
	var rows, csvRows [][]string
	for _, name := range modelSet {
		g, err := models.Build(name, image)
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
		for _, b := range batches {
			pred := tm.PredictThroughput(met, float64(b), 1, 1)
			measuredCell := "OOM (prediction only)"
			if sim.Fits(g, b) {
				meanT, stdT, err := measureRepeated(sim, g, b, 1, 1, reps)
				if err != nil {
					return nil, err
				}
				measuredCell = fmt.Sprintf("%.0f ± %.0f", meanT, stdT)
				res.Stats[fmt.Sprintf("measured_%s_b%d", name, b)] = meanT
			}
			rows = append(rows, []string{
				name, fmt.Sprintf("%d", b), measuredCell, fmt.Sprintf("%.0f", pred),
			})
			meas := ""
			if v, ok := res.Stats[fmt.Sprintf("measured_%s_b%d", name, b)]; ok {
				meas = fmt.Sprintf("%.1f", v)
			}
			csvRows = append(csvRows, []string{name, fmt.Sprintf("%d", b), meas, fmt.Sprintf("%.1f", pred)})
			res.Stats[fmt.Sprintf("predicted_%s_b%d", name, b)] = pred
		}
	}
	res.Series["fig9"] = csvDoc([]string{"model", "batch", "measured_imgs", "predicted_imgs"}, csvRows)
	res.Text = table([]string{"ConvNet", "Batch", "Measured img/s", "Predicted img/s"}, rows)
	return res, nil
}
