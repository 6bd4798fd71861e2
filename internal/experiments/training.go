package experiments

import (
	"fmt"

	"convmeter/internal/bench"
	"convmeter/internal/core"
)

// singleGPUScenario shrinks the paper's single-A100 sweep under Quick.
func singleGPUScenario(cfg Config) bench.TrainingScenario {
	sc := bench.DefaultSingleGPUScenario(cfg.Seed)
	if cfg.Quick {
		sc.Models = []string{
			"alexnet", "resnet18", "resnet50", "mobilenet_v2", "vgg11",
			"efficientnet_b0", "squeezenet1_0", "densenet121",
		}
		sc.Images = []int{64, 128, 224}
		sc.Batches = []int{4, 16, 64, 256}
	}
	sc.Obs = cfg.Obs
	return sc
}

// distributedScenario shrinks the paper's multi-node sweep under Quick.
func distributedScenario(cfg Config) bench.TrainingScenario {
	sc := bench.DefaultDistributedScenario(cfg.Seed)
	if cfg.Quick {
		sc.Models = []string{
			"alexnet", "resnet18", "resnet50", "mobilenet_v2", "vgg11",
			"efficientnet_b0", "squeezenet1_0", "densenet121",
		}
		sc.Images = []int{64, 128}
		sc.Batches = []int{16, 64, 256}
		sc.Topologies = [][2]int{{8, 2}, {16, 4}, {64, 16}}
	}
	sc.Obs = cfg.Obs
	return sc
}

// renderTraining renders per-model iteration accuracy plus the per-phase
// overall reports (the paper's Figure 5/7 panels).
func renderTraining(ev *core.TrainEvaluation) string {
	text := perModelTable(&ev.Evaluation, "ms", 1e3)
	phases := [][]string{
		{"forward", fmt.Sprintf("%.3f", ev.FwdOverall.R2), fmt.Sprintf("%.3f", ev.FwdOverall.NRMSE), fmt.Sprintf("%.3f", ev.FwdOverall.MAPE)},
		{"backward", fmt.Sprintf("%.3f", ev.BwdOverall.R2), fmt.Sprintf("%.3f", ev.BwdOverall.NRMSE), fmt.Sprintf("%.3f", ev.BwdOverall.MAPE)},
		{"gradient", fmt.Sprintf("%.3f", ev.GradOverall.R2), fmt.Sprintf("%.3f", ev.GradOverall.NRMSE), fmt.Sprintf("%.3f", ev.GradOverall.MAPE)},
		{"step", fmt.Sprintf("%.3f", ev.Overall.R2), fmt.Sprintf("%.3f", ev.Overall.NRMSE), fmt.Sprintf("%.3f", ev.Overall.MAPE)},
	}
	text += "\nPer-phase overall accuracy:\n"
	text += table([]string{"Phase", "R²", "NRMSE", "MAPE"}, phases)
	return text
}

// trainStats extracts the headline numbers of a training evaluation.
func trainStats(ev *core.TrainEvaluation) map[string]float64 {
	s := map[string]float64{
		"r2_overall":    ev.Overall.R2,
		"mape_overall":  ev.Overall.MAPE,
		"nrmse_overall": ev.Overall.NRMSE,
		"rmse_overall":  ev.Overall.RMSE,
		"mape_fwd":      ev.FwdOverall.MAPE,
		"mape_bwd":      ev.BwdOverall.MAPE,
		"mape_grad":     ev.GradOverall.MAPE,
	}
	for name, rep := range ev.PerModel {
		s["mape_"+name] = rep.MAPE
	}
	return s
}

// Table3Single reproduces the single-GPU half of Table 3 and Figure 5:
// training-step phase prediction on one A100 under leave-one-model-out.
func Table3Single(cfg Config) (*Result, error) {
	samples, err := bench.CollectTraining(singleGPUScenario(cfg))
	if err != nil {
		return nil, err
	}
	ev, err := lomoEval(cfg, func() (*core.TrainEvaluation, error) {
		return core.EvaluateTrainingLOMO(samples)
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:    "table3single",
		Title: "Table 3 (single GPU) / Figure 5: training-step prediction on one A100 (LOMO)",
		Text:  fmt.Sprintf("(%d points)\n%s", len(samples), renderTraining(ev)),
		Stats: trainStats(ev),
	}, nil
}

// Table3Multi reproduces the distributed half of Table 3 and Figure 7:
// training-step phase prediction on multiple A100 nodes.
func Table3Multi(cfg Config) (*Result, error) {
	samples, err := bench.CollectTraining(distributedScenario(cfg))
	if err != nil {
		return nil, err
	}
	ev, err := lomoEval(cfg, func() (*core.TrainEvaluation, error) {
		return core.EvaluateTrainingLOMO(samples)
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:    "table3multi",
		Title: "Table 3 (distributed) / Figure 7: training-step prediction on multiple A100 nodes (LOMO)",
		Text:  fmt.Sprintf("(%d points)\n%s", len(samples), renderTraining(ev)),
		Stats: trainStats(ev),
	}, nil
}
