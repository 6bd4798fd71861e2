package core

import (
	"fmt"
	"sort"

	"convmeter/internal/regress"
)

// PredPair is one (measured, predicted) point, kept for scatter outputs.
type PredPair struct {
	Model  string
	Actual float64
	Pred   float64
}

// Evaluation is the result of a leave-one-model-out accuracy assessment:
// per-ConvNet error reports (the layout of the paper's Tables 1 and 3)
// plus the pooled overall report and the raw scatter pairs.
type Evaluation struct {
	PerModel map[string]regress.Report
	Overall  regress.Report
	Pairs    []PredPair
}

// Models returns the evaluated model names, sorted.
func (e *Evaluation) Models() []string {
	out := make([]string, 0, len(e.PerModel))
	for m := range e.PerModel {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// EvaluateLOMO runs the paper's leave-one-model-out protocol with a
// caller-supplied fit-and-predict: for each distinct model, fit on all
// other models' samples and predict the held-out ones. It is exported so
// baseline predictors are evaluated under the identical protocol.
func EvaluateLOMO(samples []Sample, predictHeld func(train, held []Sample) ([]float64, error), actual func(Sample) float64) (*Evaluation, error) {
	if err := validateAll(samples); err != nil {
		return nil, err
	}
	names := modelNames(samples)
	if len(names) < 2 {
		return nil, fmt.Errorf("core: LOMO needs >=2 distinct models, got %d", len(names))
	}
	ev := &Evaluation{PerModel: make(map[string]regress.Report, len(names))}
	var allActual, allPred []float64
	for _, name := range names {
		train, held := Split(samples, name)
		preds, err := predictHeld(train, held)
		if err != nil {
			return nil, fmt.Errorf("core: LOMO for %s: %w", name, err)
		}
		acts := make([]float64, len(held))
		for i, s := range held {
			acts[i] = actual(s)
			ev.Pairs = append(ev.Pairs, PredPair{Model: name, Actual: acts[i], Pred: preds[i]})
		}
		rep, err := regress.Evaluate(acts, preds)
		if err != nil {
			return nil, fmt.Errorf("core: LOMO report for %s: %w", name, err)
		}
		ev.PerModel[name] = rep
		allActual = append(allActual, acts...)
		allPred = append(allPred, preds...)
	}
	overall, err := regress.Evaluate(allActual, allPred)
	if err != nil {
		return nil, err
	}
	ev.Overall = overall
	return ev, nil
}

// EvaluateInferenceLOMO measures inference-prediction accuracy with the
// leave-one-model-out protocol (paper Table 1 / Figure 3).
func EvaluateInferenceLOMO(samples []Sample) (*Evaluation, error) {
	return EvaluateLOMO(samples,
		func(train, held []Sample) ([]float64, error) {
			m, err := FitInference(train)
			if err != nil {
				return nil, err
			}
			preds := make([]float64, len(held))
			for i, s := range held {
				preds[i] = float64(m.Predict(s.Met, float64(s.BatchPerDevice)))
			}
			return preds, nil
		},
		func(s Sample) float64 { return float64(s.Fwd) })
}

// TrainEvaluation extends Evaluation with per-phase overall reports
// (the paper's Figures 5 and 7 panels).
type TrainEvaluation struct {
	Evaluation  // per-model + overall for the full training step
	FwdOverall  regress.Report
	BwdOverall  regress.Report
	GradOverall regress.Report
}

// EvaluateTrainingLOMO measures training-step prediction accuracy with
// the leave-one-model-out protocol (paper Table 3 / Figures 5 and 7).
func EvaluateTrainingLOMO(samples []Sample) (*TrainEvaluation, error) {
	var fa, fp, ba, bp, ga, gp []float64
	ev, err := EvaluateLOMO(samples,
		func(train, held []Sample) ([]float64, error) {
			m, err := FitTraining(train)
			if err != nil {
				return nil, err
			}
			preds := make([]float64, len(held))
			for i, s := range held {
				ph := m.PredictPhases(s.Met, float64(s.BatchPerDevice), s.Devices, s.Nodes)
				preds[i] = float64(ph.Iter)
				fa = append(fa, float64(s.Fwd))
				fp = append(fp, float64(ph.Fwd))
				ba = append(ba, float64(s.Bwd))
				bp = append(bp, float64(ph.Bwd))
				ga = append(ga, float64(s.Grad))
				gp = append(gp, float64(ph.Grad))
			}
			return preds, nil
		},
		func(s Sample) float64 { return float64(s.Iter()) })
	if err != nil {
		return nil, err
	}
	out := &TrainEvaluation{Evaluation: *ev}
	if out.FwdOverall, err = regress.Evaluate(fa, fp); err != nil {
		return nil, err
	}
	if out.BwdOverall, err = regress.Evaluate(ba, bp); err != nil {
		return nil, err
	}
	if out.GradOverall, err = regress.Evaluate(ga, gp); err != nil {
		return nil, err
	}
	return out, nil
}
