package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"convmeter/internal/allreduce"
	"convmeter/internal/core"
	"convmeter/internal/faults"
	"convmeter/internal/graph"
	"convmeter/internal/hwsim"
	"convmeter/internal/metrics"
	"convmeter/internal/netsim"
	"convmeter/internal/train"
	"convmeter/internal/trainsim"
)

// ExtTrainFaults is the chaos counterpart of ExtTrainReal: the same real
// data-parallel trainer, but over TCP with a deterministic fault injector
// dealing stragglers, dropped/reset connections, corrupted and truncated
// chunks, and a scheduled worker crash. The run must survive all of it —
// retries absorb the transient faults, CRC validation catches the
// corruption, and elastic degradation re-forms the ring without the
// crashed worker while the global batch is respread over the survivors.
// The invariants checked are the paper's data-parallel correctness
// conditions restated under failure: the loss still falls and every
// surviving replica holds bit-identical weights.
//
// The fault schedule is a pure function of the fault seed
// (Config.FaultsSeed, falling back to Config.Seed), so two runs with the
// same seed inject the identical fault set — the property the chaos tests
// assert.
func ExtTrainFaults(cfg Config) (*Result, error) {
	prof, err := faults.ByName(profileName(cfg))
	if err != nil {
		return nil, err
	}
	inj, err := faults.New(faultsSeed(cfg), prof)
	if err != nil {
		return nil, err
	}
	g, err := trainRealNet()
	if err != nil {
		return nil, err
	}
	workers, steps, globalBatch := 4, 16, 24
	if cfg.Quick {
		// 12 steps, not fewer: the loss spikes around step 10, so a
		// shorter run can end above a first loss that started near chance.
		steps, globalBatch = 12, 16
	}
	task, err := train.NewPrototypeTask(g, 3, 0.3, cfg.Seed+41)
	if err != nil {
		return nil, err
	}
	tcfg := train.Config{
		Workers: workers, LR: 0.1, Seed: cfg.Seed + 42, Obs: cfg.Obs,
		Transport: train.TransportTCP,
		Faults:    inj,
		OpTimeout: 200 * time.Millisecond,
		Retry:     allreduce.RetryPolicy{Attempts: 2, Backoff: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
	tr, err := train.NewTrainer(g, tcfg)
	if err != nil {
		return nil, err
	}
	res, err := tr.Run(steps, task.SourceGlobal(globalBatch, tr.LiveCount))
	if err != nil {
		return nil, err
	}
	if cfg.Drift != nil {
		// The drift check reads the finished run's step record: each
		// step's wall-clock time against the prediction for the workers
		// that computed it.
		predict, err := driftPredictor(cfg, g, globalBatch)
		if err != nil {
			return nil, err
		}
		for _, rec := range res.Steps {
			cfg.Drift.Observe(predict(rec.Workers), rec.Seconds)
		}
	}
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if last >= first {
		return nil, fmt.Errorf("exttrainfaults: loss did not fall under faults (%g -> %g)", first, last)
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
	if spread := maxSum - minSum; spread != 0 {
		return nil, fmt.Errorf("exttrainfaults: survivors desynchronised (checksum spread %g)", spread)
	}
	counts := inj.CountByClass()
	// A crash-scheduled worker must be dead by the end — either its
	// scheduled crash fired, or blame-based degradation removed it first.
	for w := range prof.Crashes {
		for _, id := range res.Live {
			if id == w {
				return nil, fmt.Errorf("exttrainfaults: crash-scheduled worker %d survived", w)
			}
		}
	}
	out := &Result{
		ID:    "exttrainfaults",
		Title: "Extension: chaos run — resilient data-parallel training under injected faults",
		Stats: map[string]float64{
			"workers_start": float64(workers),
			"workers_live":  float64(len(res.Live)),
			"steps":         float64(steps),
			"global_batch":  float64(globalBatch),
			"loss_first":    first,
			"loss_last":     last,
		},
	}
	classes := []faults.Class{
		faults.ClassDelay, faults.ClassDrop, faults.ClassReset,
		faults.ClassCorrupt, faults.ClassTruncate, faults.ClassCrash,
		faults.ClassSlow,
	}
	var parts []string
	for _, c := range classes {
		out.Stats["faults_"+string(c)] = float64(counts[c])
		if counts[c] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, counts[c]))
		}
	}
	sort.Strings(parts)
	out.Text = fmt.Sprintf(
		"Trained %d steps on %d workers over TCP under profile %q (fault seed %d):\n"+
			"loss %.4f -> %.4f, %d/%d workers live, survivor checksums identical.\n"+
			"Faults injected: %s.\n",
		steps, workers, profileName(cfg), faultsSeed(cfg),
		first, last, len(res.Live), workers, strings.Join(parts, " "))
	return out, nil
}

// driftPredictor builds the chaos experiment's analytical step-time
// oracle: it fits the paper's training model on simulator samples of the
// chaos net itself, then predicts T_iter for a step's worker count (the
// global batch is respread over the survivors, exactly like the
// trainer's SourceGlobal). The drift stream's one-point κ
// calibration absorbs the constant simulator-vs-host offset, so the
// detector watches the *shape* of the residuals, not the absolute scale.
func driftPredictor(cfg Config, g *graph.Graph, globalBatch int) (func(int) float64, error) {
	met, err := metrics.FromGraph(g)
	if err != nil {
		return nil, err
	}
	sim, err := trainsim.New(trainsim.Config{
		Device: hwsim.XeonCore(), Fabric: netsim.Cluster(), Seed: cfg.Seed + 43,
	})
	if err != nil {
		return nil, err
	}
	var samples []core.Sample
	for _, devices := range []int{1, 2, 4} {
		for _, batch := range []int{2, 3, 4, 6, 8, 12, 24} {
			p, err := sim.TrainStep(g, batch, devices, 1)
			if err != nil {
				return nil, err
			}
			samples = append(samples, core.Sample{
				Model: g.Name, Met: met, Image: 8,
				BatchPerDevice: batch, Devices: devices, Nodes: 1,
				Fwd:  metrics.Seconds(p.Fwd),
				Bwd:  metrics.Seconds(p.Bwd),
				Grad: metrics.Seconds(p.Grad),
			})
		}
	}
	m, err := core.FitTraining(samples)
	if err != nil {
		return nil, err
	}
	return func(live int) float64 {
		if live < 1 {
			live = 1
		}
		b := float64(globalBatch) / float64(live)
		if b < 1 {
			b = 1
		}
		return float64(m.PredictIter(met, b, live, 1))
	}, nil
}

// profileName resolves the chaos experiment's fault profile.
func profileName(cfg Config) string {
	if cfg.FaultsProfile != "" {
		return cfg.FaultsProfile
	}
	return "chaos"
}

// faultsSeed resolves the fault-schedule seed.
func faultsSeed(cfg Config) int64 {
	if cfg.FaultsSeed != 0 {
		return cfg.FaultsSeed
	}
	return cfg.Seed
}
