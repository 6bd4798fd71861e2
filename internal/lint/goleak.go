package lint

import (
	"go/ast"
)

// GoLeak heuristically flags `go func(){…}` literals whose body shows
// no sign of a join: no WaitGroup.Done (deferred or direct), no
// channel send, no close. Such a goroutine has no way to tell anyone
// it finished, which in this codebase's worker pools (exec kernels,
// train replicas, ring all-reduce, bench collector) means either a
// leak or a silently lost result.
//
// It is a heuristic by design: a goroutine may legitimately join
// through shared state or run for the process lifetime. Those cases
// take a //lint:ignore goleak <reason> stating why.
var GoLeak = &Analyzer{
	Name: "goleak",
	Run: func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			if isTestFile(pass.Pkg.Fset, file.Pos()) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := gs.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true // named function: assume the callee documents its own lifecycle
				}
				if !hasJoinSignal(lit.Body) {
					pass.Reportf("goleak", gs.Pos(),
						"go func literal has no visible join (WaitGroup.Done, channel send, or close) in its body; it can leak or lose its result")
				}
				return true
			})
		}
	},
}

// hasJoinSignal reports whether a goroutine body contains any
// statement that can signal completion to another goroutine: a
// channel send, a close(), or a call to a method named Done
// (sync.WaitGroup's signature move, usually deferred).
func hasJoinSignal(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			switch fn := x.Fun.(type) {
			case *ast.Ident:
				if fn.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if fn.Sel.Name == "Done" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
