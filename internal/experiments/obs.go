package experiments

// runOne executes one runner. Under telemetry the run is wrapped in an
// "experiment:<id>" span, which child spans — bench tasks, LOMO
// evaluations, training steps — attach to via Config.Obs. Its duration
// is the span's; its headline statistics travel in the Result. With
// telemetry disabled this is exactly r.Run.
func runOne(r Runner, cfg Config) (*Result, error) {
	if cfg.Obs == nil {
		return r.Run(cfg)
	}
	sp := cfg.Obs.Start("experiment:" + r.ID)
	inner := cfg
	inner.Obs = cfg.Obs.WithSpan(sp)
	res, err := r.Run(inner)
	sp.End()
	return res, err
}

// lomoEval wraps one leave-one-model-out evaluation in a "lomo" span.
// The evaluation itself runs in analytical packages (core, baselines),
// which the boundary rule keeps telemetry-free — so the span is opened
// here, at the measured-side call site.
func lomoEval[T any](cfg Config, eval func() (T, error)) (T, error) {
	sp := cfg.Obs.Start("lomo")
	out, err := eval()
	sp.End()
	return out, err
}
