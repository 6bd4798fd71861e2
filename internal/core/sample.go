// Package core implements ConvMeter itself: the paper's linear-regression
// performance models for ConvNet inference and training.
//
// The forward (= inference) model is Equation 3 of the paper,
//
//	T_fwd = b·(c1·F + c2·I + c3·O) + c4,
//
// with F/I/O the batch-1 FLOPs/Inputs/Outputs metrics and b the per-device
// mini-batch size. The backward pass reuses the same functional form with
// its own coefficients. The gradient update is modelled as c1·L for a
// single device and c1·L + c2·W + c3·N for N > 1, and — because backward
// compute and gradient synchronisation overlap in practice — the two are
// also fitted jointly as the paper's 7-coefficient combined model. Fitting
// is plain least squares; all hardware influence lives in the
// coefficients, all network influence in the metrics.
package core

import (
	"errors"
	"fmt"

	"convmeter/internal/metrics"
)

// Sample is one benchmark measurement: a network (represented by its
// batch-1 metrics) run at a specific configuration, with the measured
// phase times in seconds. For inference-only samples the training phases
// are zero.
type Sample struct {
	Model          string
	Met            metrics.Metrics
	Image          int // square input image edge, recorded for reporting
	BatchPerDevice int
	Devices        int // total GPUs (1 for single-device scenarios)
	Nodes          int // physical nodes (1 for single-node scenarios)
	Fwd            metrics.Seconds
	Bwd            metrics.Seconds
	Grad           metrics.Seconds
}

// Iter returns the full training-step time of the sample.
func (s Sample) Iter() metrics.Seconds { return s.Fwd + s.Bwd + s.Grad }

// validate rejects malformed samples early so fit errors are attributable.
func (s Sample) validate() error {
	if s.Model == "" {
		return errors.New("core: sample without model name")
	}
	if s.BatchPerDevice <= 0 {
		return fmt.Errorf("core: sample %s has batch %d", s.Model, s.BatchPerDevice)
	}
	if s.Devices <= 0 || s.Nodes <= 0 || s.Devices < s.Nodes {
		return fmt.Errorf("core: sample %s has devices=%d nodes=%d", s.Model, s.Devices, s.Nodes)
	}
	if s.Fwd < 0 || s.Bwd < 0 || s.Grad < 0 {
		return fmt.Errorf("core: sample %s has negative phase time", s.Model)
	}
	return nil
}

// validateAll checks a sample set.
func validateAll(samples []Sample) error {
	if len(samples) == 0 {
		return errors.New("core: empty sample set")
	}
	for i, s := range samples {
		if err := s.validate(); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
	}
	return nil
}

// modelNames returns the distinct model names in the sample set.
func modelNames(samples []Sample) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range samples {
		if !seen[s.Model] {
			seen[s.Model] = true
			out = append(out, s.Model)
		}
	}
	return out
}

// Split partitions samples into those not belonging to model (train) and
// those belonging to it (held out) — the paper's leave-one-model-out rule.
// It is exported so baseline protocols hold out exactly what LOMO does.
func Split(samples []Sample, model string) (train, held []Sample) {
	for _, s := range samples {
		if s.Model == model {
			held = append(held, s)
		} else {
			train = append(train, s)
		}
	}
	return train, held
}
