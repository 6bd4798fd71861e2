package experiments

import (
	"fmt"

	"convmeter/internal/baselines"
	"convmeter/internal/bench"
	"convmeter/internal/core"
	"convmeter/internal/hwsim"
	"convmeter/internal/models"
	"convmeter/internal/netsim"
	"convmeter/internal/regress"
	"convmeter/internal/trainsim"
)

// Ablation quantifies the design choices DESIGN.md calls out:
//
//  1. Modeling effort (§3.4 / Table 4 context): prediction quality as a
//     function of benchmark dataset size — ConvMeter's claim is that a
//     few coefficients fitted on <5,000 points suffice, with no
//     fine-tuning iterations.
//  2. Pooled vs model-specific coefficients (§4.3): tuning on a specific
//     ConvNet of interest sharpens its own prediction.
//  3. Measurement-noise sensitivity: LOMO error under increasing
//     run-to-run variation.
//  4. Horovod fusion-buffer size: exposed gradient time across buffer
//     sizes in the overlap simulator.
func Ablation(cfg Config) (*Result, error) {
	res := &Result{
		ID:    "ablation",
		Title: "Ablations: dataset size, per-model tuning, noise, fusion buffer",
		Stats: map[string]float64{},
	}
	text := ""

	// --- 1. Dataset-size ablation ---------------------------------------
	full, err := bench.CollectInference(inferenceScenario(hwsim.A100(), cfg))
	if err != nil {
		return nil, err
	}
	holdModel := "resnet50"
	if cfg.Quick {
		holdModel = "resnet18"
	}
	trainAll, held := core.Split(full, holdModel)
	sizes := []int{25, 100, 400, len(trainAll)}
	var rows [][]string
	for _, n := range sizes {
		if n > len(trainAll) {
			n = len(trainAll)
		}
		// Stratified-by-model subsample: a tiny benchmark budget should
		// still span the zoo, as a real reduced campaign would.
		sub := bench.Subsample(trainAll, n, cfg.Seed+int64(n))
		m, err := core.FitInference(sub)
		if err != nil {
			return nil, err
		}
		acts := make([]float64, len(held))
		preds := make([]float64, len(held))
		for i, s := range held {
			acts[i] = float64(s.Fwd)
			preds[i] = float64(m.Predict(s.Met, float64(s.BatchPerDevice)))
		}
		rep, err := regress.Evaluate(acts, preds)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{fmt.Sprintf("%d", n), fmt.Sprintf("%.3f", rep.MAPE), fmt.Sprintf("%.3f", rep.R2)})
		res.Stats[fmt.Sprintf("datasize_mape_%d", n)] = rep.MAPE
	}
	text += fmt.Sprintf("Dataset-size ablation (held-out %s):\n%s\n", holdModel,
		table([]string{"Fit points", "MAPE", "R²"}, rows))

	// --- 2. Pooled vs model-specific coefficients ------------------------
	pooled, err := core.FitInference(trainAll)
	if err != nil {
		return nil, err
	}
	specific, err := core.FitInference(held)
	if err != nil {
		return nil, err
	}
	evalOn := func(m *core.InferenceModel) (regress.Report, error) {
		acts := make([]float64, len(held))
		preds := make([]float64, len(held))
		for i, s := range held {
			acts[i] = float64(s.Fwd)
			preds[i] = float64(m.Predict(s.Met, float64(s.BatchPerDevice)))
		}
		return regress.Evaluate(acts, preds)
	}
	pooledRep, err := evalOn(pooled)
	if err != nil {
		return nil, err
	}
	specificRep, err := evalOn(specific)
	if err != nil {
		return nil, err
	}
	res.Stats["pooled_mape"] = pooledRep.MAPE
	res.Stats["specific_mape"] = specificRep.MAPE
	text += fmt.Sprintf("Pooled vs %s-specific coefficients on %s: pooled MAPE %.3f, specific MAPE %.3f\n\n",
		holdModel, holdModel, pooledRep.MAPE, specificRep.MAPE)

	// --- 2b. Fitting objective: relative-weighted vs plain OLS -----------
	// The paper evaluates with MAPE ("large and small errors ... equally
	// important"); fitting with relative weights aligns the objective with
	// that metric, while plain OLS lets second-scale measurements dominate
	// millisecond ones. Compared under the full LOMO protocol (a single
	// held-out model can go either way; the sweep-wide gap is decisive).
	olsEv, err := core.EvaluateLOMO(full,
		func(train, held []core.Sample) ([]float64, error) {
			m, err := core.FitInferenceOLS(train)
			if err != nil {
				return nil, err
			}
			preds := make([]float64, len(held))
			for i, s := range held {
				preds[i] = float64(m.Predict(s.Met, float64(s.BatchPerDevice)))
			}
			return preds, nil
		},
		func(s core.Sample) float64 { return float64(s.Fwd) })
	if err != nil {
		return nil, err
	}
	wlsEv, err := core.EvaluateInferenceLOMO(full)
	if err != nil {
		return nil, err
	}
	res.Stats["ols_mape"] = olsEv.Overall.MAPE
	res.Stats["wls_mape"] = wlsEv.Overall.MAPE
	text += fmt.Sprintf("Fitting objective (overall LOMO, A100): relative-weighted MAPE %.3f / R² %.3f vs plain OLS MAPE %.3f / R² %.3f\n",
		wlsEv.Overall.MAPE, wlsEv.Overall.R2, olsEv.Overall.MAPE, olsEv.Overall.R2)
	// The gap is largest where runtimes span the most orders of magnitude:
	// the full-range CPU sweep (batch 1–2048), where OLS parks the
	// intercept tens of milliseconds away from the smallest measurements.
	cpuSc := bench.DefaultInferenceScenario(hwsim.XeonCore(), cfg.Seed)
	if cfg.Quick {
		cpuSc.Models = inferenceScenario(hwsim.XeonCore(), cfg).Models
		cpuSc.Images = []int{64, 128}
		cpuSc.Batches = []int{1, 16, 256}
	}
	cpuSamples, err := bench.CollectInference(cpuSc)
	if err != nil {
		return nil, err
	}
	cpuOLS, err := core.EvaluateLOMO(cpuSamples,
		func(train, held []core.Sample) ([]float64, error) {
			m, err := core.FitInferenceOLS(train)
			if err != nil {
				return nil, err
			}
			preds := make([]float64, len(held))
			for i, s := range held {
				preds[i] = float64(m.Predict(s.Met, float64(s.BatchPerDevice)))
			}
			return preds, nil
		},
		func(s core.Sample) float64 { return float64(s.Fwd) })
	if err != nil {
		return nil, err
	}
	cpuWLS, err := core.EvaluateInferenceLOMO(cpuSamples)
	if err != nil {
		return nil, err
	}
	res.Stats["ols_mape_cpu"] = cpuOLS.Overall.MAPE
	res.Stats["wls_mape_cpu"] = cpuWLS.Overall.MAPE
	text += fmt.Sprintf("Fitting objective (overall LOMO, full-range CPU sweep): relative-weighted MAPE %.3f vs plain OLS MAPE %.3f\n\n",
		cpuWLS.Overall.MAPE, cpuOLS.Overall.MAPE)

	// --- 3. Noise sensitivity --------------------------------------------
	rows = nil
	for _, sigma := range []float64{0.02, 0.06, 0.12} {
		sc := inferenceScenario(hwsim.A100(), cfg)
		sc.NoiseSigma = sigma
		samples, err := bench.CollectInference(sc)
		if err != nil {
			return nil, err
		}
		ev, err := core.EvaluateInferenceLOMO(samples)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{fmt.Sprintf("%.2f", sigma), fmt.Sprintf("%.3f", ev.Overall.MAPE), fmt.Sprintf("%.3f", ev.Overall.R2)})
		res.Stats[fmt.Sprintf("noise_mape_%.2f", sigma)] = ev.Overall.MAPE
	}
	text += "Noise sensitivity (LOMO inference, A100):\n" +
		table([]string{"σ", "MAPE", "R²"}, rows) + "\n"

	// --- 4. Fusion-buffer sweep -------------------------------------------
	g, err := models.Build("resnet50", 128)
	if err != nil {
		return nil, err
	}
	rows = nil
	for _, fusion := range []float64{1 << 12, 1 << 22, trainsim.DefaultFusionBytes, 1 << 30} {
		sim, err := trainsim.New(trainsim.Config{
			Device: hwsim.A100(), Fabric: netsim.Cluster(),
			FusionBytes: fusion, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		p, err := sim.TrainStepExact(g, 32, 16, 4)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f KiB", fusion/1024),
			fmt.Sprintf("%.2f ms", p.Grad*1e3),
			fmt.Sprintf("%.2f ms", p.Iter*1e3),
		})
		res.Stats[fmt.Sprintf("fusion_grad_ms_%d", int(fusion))] = p.Grad * 1e3
	}
	text += "Fusion-buffer sweep (ResNet-50, 16 GPUs / 4 nodes, batch 32):\n" +
		table([]string{"Buffer", "Grad phase", "Step"}, rows) + "\n"

	// --- 5. Cross-device transfer vs native fit --------------------------
	// A Habitat-style shortcut (related work): scale A100 coefficients by
	// peak/bandwidth ratios instead of benchmarking the target device.
	srcModel, err := core.FitInference(full)
	if err != nil {
		return nil, err
	}
	transferred, err := baselines.TransferInference(srcModel, hwsim.A100(), hwsim.JetsonLike())
	if err != nil {
		return nil, err
	}
	edgeSc := inferenceScenario(hwsim.JetsonLike(), cfg)
	edgeSamples, err := bench.CollectInference(edgeSc)
	if err != nil {
		return nil, err
	}
	nativeModel, err := core.FitInference(edgeSamples)
	if err != nil {
		return nil, err
	}
	acts := make([]float64, len(edgeSamples))
	tPred := make([]float64, len(edgeSamples))
	nPred := make([]float64, len(edgeSamples))
	for i, s := range edgeSamples {
		acts[i] = float64(s.Fwd)
		tPred[i] = float64(transferred.Predict(s.Met, float64(s.BatchPerDevice)))
		nPred[i] = float64(nativeModel.Predict(s.Met, float64(s.BatchPerDevice)))
	}
	tRep, err := regress.Evaluate(acts, tPred)
	if err != nil {
		return nil, err
	}
	nRep, err := regress.Evaluate(acts, nPred)
	if err != nil {
		return nil, err
	}
	res.Stats["transfer_mape"] = tRep.MAPE
	res.Stats["native_mape"] = nRep.MAPE
	text += fmt.Sprintf("Cross-device transfer (A100→Jetson, Habitat-style) vs native fit:\n"+
		"  transferred coefficients: MAPE %.3f   native benchmark fit: MAPE %.3f\n"+
		"  — target-side benchmarking (ConvMeter's approach) is worth its small cost.\n",
		tRep.MAPE, nRep.MAPE)

	res.Text = text
	return res, nil
}
