package experiments

import (
	"time"

	"convmeter/internal/obs"
)

// runOne executes one runner. Under telemetry the run is wrapped in an
// "experiment:<id>" span (which child spans — bench tasks, LOMO
// evaluations, training steps — attach to via Config.Obs), timed into a
// per-experiment gauge, and its headline statistics are exported as
// convmeter_experiment_stat gauges so fit quality and residuals are
// exported alongside the runtime metrics. With telemetry disabled this
// is exactly r.Run.
func runOne(r Runner, cfg Config) (*Result, error) {
	if cfg.Obs == nil {
		return r.Run(cfg)
	}
	sp := cfg.Obs.Start("experiment:" + r.ID)
	inner := cfg
	inner.Obs = cfg.Obs.WithSpan(sp)
	t0 := time.Now()
	res, err := r.Run(inner)
	sp.End()
	if err != nil {
		return nil, err
	}
	o := cfg.Obs
	o.Counter("convmeter_experiments_total", "experiment runners executed").Inc()
	o.Gauge(obs.Label("convmeter_experiment_seconds", "experiment", r.ID),
		"wall-clock of each experiment's most recent run").Set(time.Since(t0).Seconds())
	for _, stat := range sortedKeys(res.Stats) {
		o.Gauge(obs.Label("convmeter_experiment_stat", "experiment", r.ID, "stat", stat),
			"headline statistics (fit quality, residuals, point counts) of each experiment's most recent run").
			Set(res.Stats[stat])
	}
	return res, nil
}

// lomoEval wraps one leave-one-model-out evaluation in a "lomo" span
// and feeds its duration into a shared histogram. The evaluation itself
// runs in analytical packages (core, baselines), which the boundary rule
// keeps telemetry-free — so both are applied here, at the measured-side
// call site.
func lomoEval[T any](cfg Config, eval func() (T, error)) (T, error) {
	if cfg.Obs == nil {
		return eval()
	}
	sp := cfg.Obs.Start("lomo")
	t0 := time.Now()
	out, err := eval()
	sp.End()
	cfg.Obs.Histogram("convmeter_experiment_lomo_seconds",
		"wall-clock per leave-one-model-out evaluation", obs.DefaultDurationBuckets()).
		Observe(time.Since(t0).Seconds())
	return out, err
}
