package lint

// Suite returns the full convlint analyzer set in reporting order.
// The boundary and determinism analyzers read their scope from the
// repo's lint.config.
func Suite(cfg *Config) []*Analyzer {
	return []*Analyzer{
		NewBoundary(cfg),
		NewDeterminism(cfg),
		FloatCmp,
		DroppedErr,
		GoLeak,
	}
}
