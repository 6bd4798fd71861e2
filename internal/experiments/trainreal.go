package experiments

import (
	"fmt"

	"convmeter/internal/graph"
	"convmeter/internal/train"
)

// trainRealNet builds a small trainable CNN (3 classes) — large enough to
// exercise every instrumented layer (conv/pool/linear kernels, the ring
// all-reduce), small enough to train in well under a second.
func trainRealNet() (*graph.Graph, error) {
	b, x := graph.NewBuilder("trainreal", graph.Shape{C: 2, H: 8, W: 8})
	x = b.Conv(x, "conv1", 4, 3, 1, 1)
	x = b.ReLU(x, "relu1")
	x = b.MaxPool2d(x, "pool", 2, 2, 0)
	x = b.Conv(x, "conv2", 8, 3, 1, 1)
	x = b.ReLU(x, "relu2")
	x = b.GlobalAvgPool(x, "gap")
	x = b.Flatten(x, "flat")
	x = b.Linear(x, "fc", 3)
	return b.Build()
}

// ExtTrainReal runs the *real* data-parallel trainer (internal/train →
// internal/exec kernels, internal/allreduce gradient sync) on a synthetic
// prototype task and verifies the two invariants the paper's performance
// model presumes: the loss falls and the replicas stay bit-synchronised.
// Unlike the simulator-driven experiments, every recorded duration here
// is genuine wall clock, which makes this the telemetry layer's
// end-to-end fixture: with Config.Obs set, the run produces a span tree
// experiment:exttrainreal → step N → fwd/bwd/grad plus kernel, step, and
// ring-transport metrics.
func ExtTrainReal(cfg Config) (*Result, error) {
	g, err := trainRealNet()
	if err != nil {
		return nil, err
	}
	workers, steps, batch := 4, 12, 8
	if cfg.Quick {
		// 12 steps, not fewer: at LR 0.1 the loss overshoots around step
		// 3 and takes a few steps to come back, so a shorter run can end
		// above a first loss that started near chance.
		workers, steps, batch = 2, 12, 4
	}
	task, err := train.NewPrototypeTask(g, 3, 0.3, cfg.Seed+41)
	if err != nil {
		return nil, err
	}
	res, err := train.DataParallel(g, train.Config{
		Workers: workers, LR: 0.1, Seed: cfg.Seed + 42, Obs: cfg.Obs,
	}, steps, task.Source(batch))
	if err != nil {
		return nil, err
	}
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if last >= first {
		return nil, fmt.Errorf("exttrainreal: loss did not fall (%g -> %g)", first, last)
	}
	minSum, maxSum := res.Checksums[0], res.Checksums[0]
	for _, c := range res.Checksums[1:] {
		if c < minSum {
			minSum = c
		}
		if c > maxSum {
			maxSum = c
		}
	}
	spread := maxSum - minSum
	if spread != 0 {
		return nil, fmt.Errorf("exttrainreal: replicas desynchronised (checksum spread %g)", spread)
	}
	out := &Result{
		ID:    "exttrainreal",
		Title: "Extension: real data-parallel training run (exec kernels + ring all-reduce)",
		Stats: map[string]float64{
			"workers":         float64(workers),
			"steps":           float64(steps),
			"batch_per_w":     float64(batch),
			"loss_first":      first,
			"loss_last":       last,
			"checksum_spread": spread,
		},
	}
	out.Text = fmt.Sprintf(
		"Trained %d steps on %d workers (batch %d each): loss %.4f -> %.4f,\n"+
			"all %d replica checksums identical.\n",
		steps, workers, batch, first, last, len(res.Checksums))
	return out, nil
}
