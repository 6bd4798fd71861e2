package lint

import (
	"strconv"
)

// NewBoundary returns the analyzer enforcing the paper's central
// architectural invariant: the five inherent metrics (F, I, O, W, L)
// are computable analytically, without running the network. Packages
// classified "analytical" in lint.config therefore must not import
// packages classified "measured" — if core or metrics ever reached
// into the executor or a simulator, the claim would silently break.
// Exceptions require an explicit allow entry in the config.
func NewBoundary(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "boundary",
		Run: func(pass *Pass) {
			if cfg.classify(pass.Pkg.ImportPath) != "analytical" {
				return
			}
			for _, file := range pass.Pkg.Files {
				if isTestFile(pass.Pkg.Fset, file.Pos()) {
					continue
				}
				for _, imp := range file.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						continue
					}
					if cfg.classify(path) != "measured" {
						continue
					}
					if cfg.allowed(pass.Pkg.ImportPath, path) {
						continue
					}
					pass.Reportf("boundary", imp.Pos(),
						"analytical package %s imports measured package %s (the inherent metrics must stay computable without running the network; add an allow entry to lint.config only with a written justification)",
						pass.Pkg.ImportPath, path)
				}
			}
		},
	}
}
