// Package baselines implements the comparison predictors of the paper's
// evaluation: the single-metric regressions behind Figure 2 (FLOPs-only,
// Inputs-only, Outputs-only and combinations) and a DIPPM-like learned
// predictor (a from-scratch MLP over graph features, standing in for the
// unavailable GNN-based DIPPM — see DESIGN.md for the substitution
// rationale).
package baselines

import (
	"errors"
	"fmt"

	"convmeter/internal/core"
	"convmeter/internal/metrics"
	"convmeter/internal/regress"
)

// MetricMask selects which of the three batch-scaling ConvNet metrics a
// regression may use; the intercept is always included. The paper's
// Figure 2 compares F, I, O individually against the full combination.
type MetricMask struct {
	F, I, O bool
}

// String names the mask, e.g. "FLOPs+Outputs".
func (m MetricMask) String() string {
	s := ""
	add := func(name string) {
		if s != "" {
			s += "+"
		}
		s += name
	}
	if m.F {
		add("FLOPs")
	}
	if m.I {
		add("Inputs")
	}
	if m.O {
		add("Outputs")
	}
	if s == "" {
		return "intercept-only"
	}
	return s
}

// vector assembles the masked feature vector at mini-batch b.
func (m MetricMask) vector(met metrics.Metrics, b float64) []float64 {
	s := met.Scale(b)
	var v []float64
	if m.F {
		v = append(v, float64(s.FLOPs))
	}
	if m.I {
		v = append(v, float64(s.Inputs))
	}
	if m.O {
		v = append(v, float64(s.Outputs))
	}
	return append(v, 1)
}

// AblationModel is a forward-pass regression restricted to a metric
// subset.
type AblationModel struct {
	Mask MetricMask
	reg  *regress.Model
}

// FitAblation fits a restricted inference model on the samples.
func FitAblation(samples []core.Sample, mask MetricMask) (*AblationModel, error) {
	if !mask.F && !mask.I && !mask.O {
		return nil, errors.New("baselines: empty metric mask")
	}
	if len(samples) == 0 {
		return nil, errors.New("baselines: no samples")
	}
	feats := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		feats[i] = mask.vector(s.Met, float64(s.BatchPerDevice))
		y[i] = float64(s.Fwd)
	}
	reg, err := regress.FitRelative(feats, y)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s fit: %w", mask, err)
	}
	return &AblationModel{Mask: mask, reg: reg}, nil
}

// Predict estimates the forward time for metrics met at mini-batch b.
func (m *AblationModel) Predict(met metrics.Metrics, b float64) float64 {
	return m.reg.Predict(m.Mask.vector(met, b))
}

// EvaluateAblationLOMO runs the leave-one-model-out protocol for a metric
// subset (one curve of Figure 2).
func EvaluateAblationLOMO(samples []core.Sample, mask MetricMask) (*core.Evaluation, error) {
	return core.EvaluateLOMO(samples,
		func(train, held []core.Sample) ([]float64, error) {
			m, err := FitAblation(train, mask)
			if err != nil {
				return nil, err
			}
			preds := make([]float64, len(held))
			for i, s := range held {
				preds[i] = m.Predict(s.Met, float64(s.BatchPerDevice))
			}
			return preds, nil
		},
		func(s core.Sample) float64 { return float64(s.Fwd) })
}

// AllMasks enumerates the seven non-empty metric combinations, for the
// extended Figure 2 ablation bench.
func AllMasks() []MetricMask {
	return []MetricMask{
		{F: true},
		{I: true},
		{O: true},
		{F: true, I: true},
		{F: true, O: true},
		{I: true, O: true},
		{F: true, I: true, O: true},
	}
}
