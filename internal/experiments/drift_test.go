package experiments

import (
	"testing"

	"convmeter/internal/core"
	"convmeter/internal/driftwatch"
)

// TestLomoEvalFeedsDrift: a completed LOMO evaluation streams its
// scatter pairs into the drift monitor — inference evaluations on the
// "fwd" phase, training evaluations on "iter".
func TestLomoEvalFeedsDrift(t *testing.T) {
	mon := driftwatch.New(driftwatch.Config{})
	cfg := Config{Drift: mon}

	infer := &core.Evaluation{Pairs: []core.PredPair{
		{Model: "alexnet", Actual: 0.010, Pred: 0.011},
		{Model: "alexnet", Actual: 0.020, Pred: 0.019},
		{Model: "vgg16", Actual: 0.100, Pred: 0.104},
	}}
	if _, err := lomoEval(cfg, func() (*core.Evaluation, error) { return infer, nil }); err != nil {
		t.Fatal(err)
	}
	train := &core.TrainEvaluation{Evaluation: core.Evaluation{Pairs: []core.PredPair{
		{Model: "resnet50", Actual: 0.300, Pred: 0.310},
	}}}
	if _, err := lomoEval(cfg, func() (*core.TrainEvaluation, error) { return train, nil }); err != nil {
		t.Fatal(err)
	}

	snap := mon.Snapshot()
	want := map[string]struct {
		phase string
		pairs int
	}{
		"alexnet":  {"fwd", 2},
		"vgg16":    {"fwd", 1},
		"resnet50": {"iter", 1},
	}
	if len(snap.Streams) != len(want) {
		t.Fatalf("monitor has %d streams, want %d: %+v", len(snap.Streams), len(want), snap)
	}
	for _, st := range snap.Streams {
		w, ok := want[st.Model]
		if !ok || st.Phase != w.phase || st.Pairs != w.pairs {
			t.Errorf("stream %s/%s with %d pairs, want %+v", st.Model, st.Phase, st.Pairs, want)
		}
	}

	// Disabled monitoring and unrelated result types are no-ops.
	feedDriftEval(Config{}, infer)
	feedDriftEval(cfg, 42)
	feedDriftEval(cfg, (*core.Evaluation)(nil))
}
