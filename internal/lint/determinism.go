package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewDeterminism constructs the analyzer enforcing the replayability
// contract of packages declared `deterministic` in lint.config: their
// exported results, serialized output and hash/fingerprint inputs must
// be bit-identical across runs, retries and goroutine schedules — the
// property the fault-injection framework and the dagrun manifests are
// built on, and the reason the paper's analytical metrics can be
// regression-tested against golden values at all.
//
// Unlike the per-expression analyzers, this one is dataflow-aware: it
// builds a lightweight intra-package call graph and only reports a
// nondeterminism source when the function containing it is reachable
// from the package's public surface — an exported function or method,
// an init function, or a function whose address escapes (assigned,
// passed, or stored, so it may be called from anywhere). A source in
// genuinely dead or purely internal code is noise; one reachable from
// an exported entry point is a replay bug waiting for a map resize.
//
// Sources recognised:
//
//   - `range` over a map: iteration order is randomised per run. The
//     canonical fix — collect keys, sort, then index — is recognised:
//     a range whose enclosing function calls a sort routine
//     (sort.Slice, sort.Strings, slices.Sort, …) lexically after the
//     loop is accepted as the collect-then-sort idiom.
//   - time.Now: wall-clock reads make output depend on when, not what.
//     Deterministic packages take injected clocks (cf. obs.Clock).
//   - math/rand package-level functions (rand.Intn, rand.Float64, …):
//     the global source is shared, lock-contended and — absent an
//     explicit Seed — differently seeded per process. Methods on a
//     locally constructed, explicitly seeded *rand.Rand are fine and
//     are not flagged.
//   - appends to a captured slice from inside a `go` literal: the
//     element order then depends on goroutine scheduling.
func NewDeterminism(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Run: func(pass *Pass) {
			if !cfg.deterministicScope(pass.Pkg.ImportPath) {
				return
			}
			if pass.Pkg.TypesInfo == nil {
				return
			}
			g := buildCallGraph(pass)
			reach := g.reachableFromRoots()
			for fn, info := range g.funcs {
				root, ok := reach[fn]
				if !ok {
					continue
				}
				for _, src := range info.sources {
					pass.Reportf("determinism", src.pos,
						"%s in deterministic package %s is reachable from %s; %s",
						src.what, pass.Pkg.ImportPath, root, src.fix)
				}
			}
		},
	}
}

// ndSource is one nondeterminism source found in a function body.
type ndSource struct {
	pos  token.Pos
	what string // e.g. "map iteration order"
	fix  string // suggested remedy
}

// funcInfo is one node of the intra-package call graph.
type funcInfo struct {
	name      string
	exported  bool
	isInit    bool
	addrTaken bool
	calls     []*types.Func
	sources   []ndSource
}

// callGraph holds the per-package call graph keyed by function object.
type callGraph struct {
	funcs map[*types.Func]*funcInfo
}

// buildCallGraph walks every non-test file, recording for each declared
// function its intra-package callees and the nondeterminism sources in
// its body (including bodies of function literals it contains).
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{funcs: map[*types.Func]*funcInfo{}}
	info := pass.Pkg.TypesInfo
	for _, file := range pass.Pkg.Files {
		if isTestFile(pass.Pkg.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{
				name:     fd.Name.Name,
				exported: fd.Name.IsExported(),
				isInit:   fd.Recv == nil && fd.Name.Name == "init",
			}
			g.funcs[obj] = fi
			collectCallsAndSources(pass, fd, fi)
		}
	}
	// Second walk: a function identifier appearing anywhere other than
	// the Fun position of a call (assigned, passed as an argument,
	// returned, stored in a struct) escapes — treat it as a root, since
	// it may be invoked from outside the visible call graph.
	for _, file := range pass.Pkg.Files {
		if isTestFile(pass.Pkg.Fset, file.Pos()) {
			continue
		}
		callees := map[*ast.Ident]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callees[fun] = true
			case *ast.SelectorExpr:
				callees[fun.Sel] = true
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || callees[id] {
				return true
			}
			if obj, ok := info.Uses[id].(*types.Func); ok {
				if fi, ok := g.funcs[obj]; ok {
					fi.addrTaken = true
				}
			}
			return true
		})
	}
	return g
}

// collectCallsAndSources records intra-package calls and nondeterminism
// sources of one function declaration.
func collectCallsAndSources(pass *Pass, fd *ast.FuncDecl, fi *funcInfo) {
	info := pass.Pkg.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if callee := calleeFunc(info, x); callee != nil {
				if callee.Pkg() == pass.Pkg.TypesPkg {
					fi.calls = append(fi.calls, callee)
				} else if isPkgFunc(info, x, "time", "Now") {
					fi.sources = append(fi.sources, ndSource{
						pos:  x.Pos(),
						what: "time.Now call (wall-clock read)",
						fix:  "inject a clock (cf. obs.Clock) so replays and tests control time",
					})
				} else if p := callee.Pkg(); p != nil && (p.Path() == "math/rand" || p.Path() == "math/rand/v2") && callee.Type().(*types.Signature).Recv() == nil && !isRandConstructor(callee.Name()) {
					fi.sources = append(fi.sources, ndSource{
						pos:  x.Pos(),
						what: "call to math/rand package-level " + callee.Name() + " (shared, per-process-seeded source)",
						fix:  "construct an explicitly seeded *rand.Rand and thread it through",
					})
				}
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap && !sortsAfter(pass, fd.Body, x.End()) {
					fi.sources = append(fi.sources, ndSource{
						pos:  x.For,
						what: "map range (iteration order is randomised per run)",
						fix:  "collect the keys, sort them, then index the map",
					})
				}
			}
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				for _, pos := range capturedAppends(pass, lit) {
					fi.sources = append(fi.sources, ndSource{
						pos:  pos,
						what: "append to a captured slice inside a go literal (element order depends on goroutine scheduling)",
						fix:  "write to a per-goroutine index or send results over a channel and order them after the join",
					})
				}
			}
		}
		return true
	})
}

// isRandConstructor exempts the math/rand functions that build an
// explicitly seeded generator rather than draw from the global source.
func isRandConstructor(name string) bool {
	switch name {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return true
	}
	return false
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions, and calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgFunc reports whether a call is pkg.name for an imported package
// with the given import path.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// sortsAfter reports whether the function body contains a call to a
// recognised sorting routine lexically after pos — the signature of the
// collect-keys-then-sort idiom, which determinises a map range.
func sortsAfter(pass *Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if f := calleeFunc(pass.Pkg.TypesInfo, call); f != nil && f.Pkg() != nil {
			switch f.Pkg().Path() {
			case "sort", "slices":
				found = true
			}
		}
		return !found
	})
	return found
}

// capturedAppends returns the positions of append assignments inside a
// function literal whose target slice is declared outside the literal.
func capturedAppends(pass *Pass, lit *ast.FuncLit) []token.Pos {
	info := pass.Pkg.TypesInfo
	var out []token.Pos
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fun, ok := call.Fun.(*ast.Ident)
			if !ok || fun.Name != "append" {
				continue
			}
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); !isBuiltin {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			target, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[target]
			if obj == nil {
				obj = info.Defs[target]
			}
			if obj == nil {
				continue
			}
			if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
				out = append(out, as.Pos())
			}
		}
		return true
	})
	return out
}

// reachableFromRoots walks the call graph from its roots — exported
// functions and methods, init functions, and functions whose address
// escapes — and returns, for each reachable function, a human-readable
// description of one root that reaches it.
func (g *callGraph) reachableFromRoots() map[*types.Func]string {
	reach := map[*types.Func]string{}
	var queue []*types.Func
	for fn, fi := range g.funcs {
		var why string
		switch {
		case fi.exported:
			why = "exported " + fi.name
		case fi.isInit:
			why = "package init"
		case fi.addrTaken:
			why = fi.name + " (address escapes)"
		default:
			continue
		}
		reach[fn] = why
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fi := g.funcs[fn]
		if fi == nil {
			continue
		}
		for _, callee := range fi.calls {
			if _, ok := reach[callee]; ok {
				continue
			}
			if _, ok := g.funcs[callee]; !ok {
				continue
			}
			reach[callee] = reach[fn]
			queue = append(queue, callee)
		}
	}
	return reach
}
