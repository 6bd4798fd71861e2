package lint

// Suite returns the full convlint analyzer set in reporting order.
// The boundary, determinism, hotpath, hotdefer and lifetime analyzers
// read their scope from the repo's lint.config.
func Suite(cfg *Config) []*Analyzer {
	return []*Analyzer{
		NewBoundary(cfg),
		NewDeterminism(cfg),
		NewHotPath(cfg),
		NewHotDefer(cfg),
		NewLifetime(cfg),
		FloatCmp,
		DroppedErr,
		GoLeak,
	}
}
