package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The hotpath analyzer family enforces allocation discipline on the
// paper's measured hot paths. The repo's value proposition is that
// prediction is cheap relative to running the network; that only holds
// if the measured stack — exec kernels, the all-reduce ring step, the
// obs observe path, the streaming drift statistics — does no per-call
// heap work. lint.config declares the hot-path roots
// (`hotpath <import-path>.<Func>` or `.<Recv>.<Method>`); everything
// reachable from a root through the intra-package call graph is "hot"
// and must not allocate.
//
// hotpath (allocation discipline) flags, in hot functions:
//
//   - make/new and heap-escaping composite literals (&T{…}, slice and
//     map literals);
//   - append where the target slice is declared locally without
//     capacity (growth allocates; even preallocated appends ride on a
//     flagged make);
//   - string ↔ []byte/[]rune conversions (always copy);
//   - fmt.*, errors.New/Join and time.NewTimer/NewTicker/After/Tick
//     calls (format buffers, heap-allocated errors, runtime timers);
//   - interface boxing at call sites: a non-pointer-shaped concrete
//     value passed where an interface is expected heap-allocates its
//     copy (pointers, chans, maps and funcs are stored inline and are
//     exempt, as are constants, which the compiler materialises in
//     static data);
//   - capturing closures outside loops (the closure cell allocates);
//   - calls to same-package functions whose warm-path returns hand out
//     freshly allocated memory (allocating constructors — exempt at
//     their definition, charged at the hot call site; a function that
//     allocates only on cold error exits is not a constructor).
//
// hotdefer (defer/closure discipline) flags, in hot functions:
//
//   - defer inside a loop (defer records accumulate until return);
//   - capturing closures created inside a loop (one cell per
//     iteration).
//
// Exemptions, applied uniformly: allocations flowing to the enclosing
// function's return (constructors hand memory to their caller — unless
// the function is itself a declared root, which promises 0 allocs/op),
// and allocations on cold exit paths — inside an if/case/select branch
// whose body terminates in return or panic (error construction on the
// way out is not steady-state cost).
//
// Like the determinism analyzer the family is call-graph based and
// shares its limitations: calls through function values and interface
// method dispatch are invisible, so functions invoked only that way
// (e.g. worker-pool task bodies) must be declared as roots themselves.
// Each finding records the root→…→function chain in Finding.Why;
// convlint -why prints it.

// NewHotPath constructs the allocation-discipline analyzer.
func NewHotPath(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Run: func(pass *Pass) {
			scanHot(pass, cfg, true, func(analyzer string, pos token.Pos, why, format string, args ...any) {
				if analyzer == "hotpath" {
					pass.ReportWhyf(analyzer, pos, why, format, args...)
				}
			})
		},
	}
}

// NewHotDefer constructs the defer/closure-discipline analyzer.
func NewHotDefer(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "hotdefer",
		Run: func(pass *Pass) {
			scanHot(pass, cfg, false, func(analyzer string, pos token.Pos, why, format string, args ...any) {
				if analyzer == "hotdefer" {
					pass.ReportWhyf(analyzer, pos, why, format, args...)
				}
			})
		},
	}
}

// hotFuncInfo is one node of the hot-path call graph.
type hotFuncInfo struct {
	localName string // "Func" or "Recv.Method"
	decl      *ast.FuncDecl
	calls     []*types.Func // intra-package direct callees, in source order
	allocRet  bool          // returns freshly allocated memory (allocating constructor)
}

// hotGraph is the per-package call graph used by the hotpath family.
type hotGraph struct {
	funcs  map[*types.Func]*hotFuncInfo
	byName map[string]*types.Func // localName → object
	order  []*types.Func          // declaration order, for deterministic output
}

// scanHot builds the call graph, resolves the configured roots, and
// walks every hot function emitting findings through emit. reportRoots
// additionally reports configured roots that match no function — only
// one of the two analyzers does this, so the finding is not duplicated.
func scanHot(pass *Pass, cfg *Config, reportRoots bool, emit func(analyzer string, pos token.Pos, why, format string, args ...any)) {
	roots := cfg.hotpathRoots(pass.Pkg.ImportPath)
	if len(roots) == 0 || pass.Pkg.TypesInfo == nil {
		return
	}
	g := buildHotGraph(pass)
	rootSet := make(map[*types.Func]bool, len(roots))
	chains := map[*types.Func]string{}
	var queue []*types.Func
	sort.Strings(roots)
	for _, r := range roots {
		fn, ok := g.byName[r]
		if !ok {
			if reportRoots {
				emit("hotpath", token.NoPos, "",
					"lint.config declares hotpath root %s.%s, but no such function exists in the package", pass.Pkg.ImportPath, r)
			}
			continue
		}
		rootSet[fn] = true
		chains[fn] = "declared root " + r
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
			ci, ok := g.funcs[callee]
			if !ok {
				continue
			}
			if _, seen := chains[callee]; seen {
				continue
			}
			chains[callee] = chains[fn] + " → " + ci.localName
			queue = append(queue, callee)
		}
	}
	for _, fn := range g.order {
		chain, hot := chains[fn]
		if !hot {
			continue
		}
		fi := g.funcs[fn]
		s := &hotScanner{
			pass:   pass,
			graph:  g,
			emit:   emit,
			why:    "hot path: " + chain,
			isRoot: rootSet[fn],
		}
		s.scanFunc(fi.decl)
	}
}

// buildHotGraph records, for every declared function, its local name,
// intra-package callees and whether it returns fresh allocations.
func buildHotGraph(pass *Pass) *hotGraph {
	g := &hotGraph{
		funcs:  map[*types.Func]*hotFuncInfo{},
		byName: map[string]*types.Func{},
	}
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
			fi := &hotFuncInfo{localName: localFuncName(fd), decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(info, call); callee != nil && callee.Pkg() == pass.Pkg.TypesPkg {
					fi.calls = append(fi.calls, callee)
				}
				return true
			})
			fi.allocRet = returnsAllocation(info, fd)
			g.funcs[obj] = fi
			g.byName[fi.localName] = obj
			g.order = append(g.order, obj)
		}
	}
	return g
}

// localFuncName renders a function's config-addressable name: "Func"
// for plain functions, "Recv.Method" for methods (pointer receivers
// spelled the same as value receivers).
func localFuncName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// returnsAllocation reports whether a warm-path return statement of fd
// hands freshly allocated memory to the caller — directly (return
// make(…), return &T{…}, an allocating conversion) or via a local
// variable that was assigned an allocation somewhere in the body.
// Allocating returns on cold branches do not count: a function that
// builds an error value only on its divergent exit paths is not an
// allocating constructor, and its steady-state call sites stay clean.
func returnsAllocation(info *types.Info, fd *ast.FuncDecl) bool {
	returned := returnedObjects(info, fd.Body)
	cold := coldReturns(fd.Body)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.ReturnStmt:
			if cold[x] {
				return true
			}
			for _, r := range x.Results {
				if isAllocExpr(info, r) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if !isAllocExpr(info, rhs) || i >= len(x.Lhs) {
					continue
				}
				if id, ok := x.Lhs[i].(*ast.Ident); ok {
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj != nil && returned[obj] {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// coldReturns collects the return statements of body that sit on cold
// branches — inside an if body, case clause or comm clause whose
// statement list diverges from the main flow (terminatesExit). The
// walk mirrors walkStmt's coldness rules so the constructor
// classification and the in-function exemptions agree on what "cold"
// means. Function literals are not descended into: a closure's returns
// belong to the closure.
func coldReturns(body *ast.BlockStmt) map[*ast.ReturnStmt]bool {
	out := map[*ast.ReturnStmt]bool{}
	var walk func(st ast.Stmt, cold bool)
	walkList := func(list []ast.Stmt, cold bool) {
		for _, sub := range list {
			walk(sub, cold)
		}
	}
	walk = func(st ast.Stmt, cold bool) {
		switch x := st.(type) {
		case nil:
		case *ast.BlockStmt:
			walkList(x.List, cold)
		case *ast.LabeledStmt:
			walk(x.Stmt, cold)
		case *ast.IfStmt:
			walk(x.Body, cold || terminatesExit(x.Body.List))
			if blk, ok := x.Else.(*ast.BlockStmt); ok {
				walk(blk, cold || terminatesExit(blk.List))
			} else if x.Else != nil {
				walk(x.Else, cold)
			}
		case *ast.ForStmt:
			walk(x.Body, cold)
		case *ast.RangeStmt:
			walk(x.Body, cold)
		case *ast.SwitchStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body, cold || terminatesExit(cc.Body))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body, cold || terminatesExit(cc.Body))
				}
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkList(cc.Body, cold || terminatesExit(cc.Body))
				}
			}
		case *ast.ReturnStmt:
			if cold {
				out[x] = true
			}
		}
	}
	walkList(body.List, false)
	return out
}

// returnedObjects collects the objects of identifiers (and named
// results) that appear as return results anywhere in the body.
func returnedObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are its own
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if id, ok := r.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isAllocExpr reports whether an expression syntactically produces a
// fresh heap allocation: make, new, append, &T{…}, a slice or map
// literal, or a string↔[]byte conversion.
func isAllocExpr(info *types.Info, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok {
			if _, builtin := info.Uses[id].(*types.Builtin); builtin {
				switch id.Name {
				case "make", "new", "append":
					return true
				}
			}
		}
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return isCopyConversion(info.TypeOf(x.Fun), info.TypeOf(x.Args[0]))
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, lit := x.X.(*ast.CompositeLit)
			return lit
		}
	case *ast.CompositeLit:
		if t := info.TypeOf(x); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				return true
			}
		}
	}
	return false
}

// isCopyConversion reports whether a conversion to dst from src is a
// string ↔ []byte/[]rune conversion, which copies its operand.
func isCopyConversion(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// hotCtx is the lexical context a node is scanned in.
type hotCtx struct {
	inLoop bool // inside a for/range body
	cold   bool // inside a branch that terminates in return/panic
	exempt bool // value flows to the enclosing function's return
}

// hotScanner walks one hot function (or literal) body.
type hotScanner struct {
	pass   *Pass
	graph  *hotGraph
	emit   func(analyzer string, pos token.Pos, why, format string, args ...any)
	why    string
	isRoot bool

	fn       ast.Node                // enclosing FuncDecl body owner or FuncLit, for capture checks
	returned map[types.Object]bool   // objects returned by the current function
	sliceVar map[types.Object]string // local slice vars: "nocap" or "cap"
}

// scanFunc scans the body of the current hot function declaration. The
// whole declaration (not just the body) is kept as the capture scope so
// closures over receivers and parameters are recognised.
func (s *hotScanner) scanFunc(fd *ast.FuncDecl) {
	s.fn = fd
	s.returned = returnedObjects(s.pass.Pkg.TypesInfo, fd.Body)
	s.sliceVar = collectSliceDecls(s.pass.Pkg.TypesInfo, fd.Body)
	s.walkStmt(fd.Body, hotCtx{})
}

// collectSliceDecls records how local slice variables were declared:
// "cap" when built by a 3-argument make (preallocated), "nocap" for
// `var x []T`, 2-argument make, or an empty slice literal.
func collectSliceDecls(info *types.Info, body *ast.BlockStmt) map[types.Object]string {
	out := map[types.Object]string{}
	record := func(id *ast.Ident, form string) {
		if obj := info.Defs[id]; obj != nil {
			out[obj] = form
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GenDecl:
			if x.Tok != token.VAR {
				return true
			}
			for _, spec := range x.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, id := range vs.Names {
					if t := info.TypeOf(id); t != nil {
						if _, isSlice := t.Underlying().(*types.Slice); isSlice {
							record(id, "nocap")
						}
					}
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				return true
			}
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				id, ok := x.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				switch r := rhs.(type) {
				case *ast.CallExpr:
					if fid, ok := r.Fun.(*ast.Ident); ok && fid.Name == "make" {
						if _, builtin := info.Uses[fid].(*types.Builtin); builtin {
							if len(r.Args) >= 3 {
								record(id, "cap")
							} else {
								record(id, "nocap")
							}
						}
					}
				case *ast.CompositeLit:
					if t := info.TypeOf(r); t != nil {
						if _, isSlice := t.Underlying().(*types.Slice); isSlice {
							record(id, "nocap")
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// report emits a finding unless the context exempts it.
func (s *hotScanner) report(analyzer string, ctx hotCtx, pos token.Pos, format string, args ...any) {
	if ctx.cold || (ctx.exempt && !s.isRoot) {
		return
	}
	s.emit(analyzer, pos, s.why, format, args...)
}

func (s *hotScanner) walkStmt(st ast.Stmt, ctx hotCtx) {
	switch x := st.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range x.List {
			s.walkStmt(sub, ctx)
		}
	case *ast.IfStmt:
		s.walkStmt(x.Init, ctx)
		s.walkExpr(x.Cond, ctx)
		bodyCtx := ctx
		bodyCtx.cold = ctx.cold || terminatesExit(x.Body.List)
		s.walkStmt(x.Body, bodyCtx)
		if x.Else != nil {
			elseCtx := ctx
			if blk, ok := x.Else.(*ast.BlockStmt); ok {
				elseCtx.cold = ctx.cold || terminatesExit(blk.List)
			}
			s.walkStmt(x.Else, elseCtx)
		}
	case *ast.ForStmt:
		s.walkStmt(x.Init, ctx)
		s.walkExpr(x.Cond, ctx)
		s.walkStmt(x.Post, ctx)
		loopCtx := ctx
		loopCtx.inLoop = true
		s.walkStmt(x.Body, loopCtx)
	case *ast.RangeStmt:
		s.walkExpr(x.X, ctx)
		loopCtx := ctx
		loopCtx.inLoop = true
		s.walkStmt(x.Body, loopCtx)
	case *ast.SwitchStmt:
		s.walkStmt(x.Init, ctx)
		s.walkExpr(x.Tag, ctx)
		for _, c := range x.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			caseCtx := ctx
			caseCtx.cold = ctx.cold || terminatesExit(cc.Body)
			for _, e := range cc.List {
				s.walkExpr(e, ctx)
			}
			for _, sub := range cc.Body {
				s.walkStmt(sub, caseCtx)
			}
		}
	case *ast.TypeSwitchStmt:
		s.walkStmt(x.Init, ctx)
		s.walkStmt(x.Assign, ctx)
		for _, c := range x.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			caseCtx := ctx
			caseCtx.cold = ctx.cold || terminatesExit(cc.Body)
			for _, sub := range cc.Body {
				s.walkStmt(sub, caseCtx)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			commCtx := ctx
			commCtx.cold = ctx.cold || terminatesExit(cc.Body)
			s.walkStmt(cc.Comm, ctx)
			for _, sub := range cc.Body {
				s.walkStmt(sub, commCtx)
			}
		}
	case *ast.ReturnStmt:
		retCtx := ctx
		retCtx.exempt = true
		for _, r := range x.Results {
			s.walkExpr(r, retCtx)
		}
	case *ast.DeferStmt:
		if ctx.inLoop {
			s.report("hotdefer", ctx, x.Pos(),
				"defer inside a loop on the hot path: the deferred call queues one record per iteration, all held until the function returns; hoist the defer out of the loop or call the cleanup directly")
		}
		// The deferred closure itself is exempt from the capturing-
		// closure rule outside loops: non-loop defers are open-coded
		// and keep their closure on the stack.
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			s.walkFuncLit(lit, ctx, true)
		} else {
			s.walkExpr(x.Call.Fun, ctx)
		}
		for _, a := range x.Call.Args {
			s.walkExpr(a, ctx)
		}
	case *ast.GoStmt:
		s.walkExpr(x.Call, ctx)
	case *ast.AssignStmt:
		for _, l := range x.Lhs {
			s.walkExpr(l, ctx)
		}
		for i, r := range x.Rhs {
			rhsCtx := ctx
			if i < len(x.Lhs) && isAllocExpr(s.pass.Pkg.TypesInfo, r) {
				if id, ok := x.Lhs[i].(*ast.Ident); ok {
					obj := s.pass.Pkg.TypesInfo.Defs[id]
					if obj == nil {
						obj = s.pass.Pkg.TypesInfo.Uses[id]
					}
					if obj != nil && s.returned[obj] {
						rhsCtx.exempt = true
					}
				}
			}
			s.walkExpr(r, rhsCtx)
		}
	case *ast.ExprStmt:
		s.walkExpr(x.X, ctx)
	case *ast.SendStmt:
		s.walkExpr(x.Chan, ctx)
		s.walkExpr(x.Value, ctx)
	case *ast.IncDecStmt:
		s.walkExpr(x.X, ctx)
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					s.walkExpr(v, ctx)
				}
			}
		}
	case *ast.LabeledStmt:
		s.walkStmt(x.Stmt, ctx)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (s *hotScanner) walkExpr(e ast.Expr, ctx hotCtx) {
	switch x := e.(type) {
	case nil:
	case *ast.CallExpr:
		s.checkCall(x, ctx)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if lit, ok := x.X.(*ast.CompositeLit); ok {
				s.report("hotpath", ctx, x.Pos(),
					"&%s composite literal escapes to the heap on the hot path; reuse a preallocated value or restructure to pass by value", typeLabel(s.pass, lit))
				for _, el := range lit.Elts {
					s.walkExpr(el, ctx)
				}
				return
			}
		}
		s.walkExpr(x.X, ctx)
	case *ast.CompositeLit:
		if t := s.pass.TypeOf(x); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				s.report("hotpath", ctx, x.Pos(),
					"slice literal allocates its backing array on the hot path; hoist it to a package-level var or preallocated scratch")
			case *types.Map:
				s.report("hotpath", ctx, x.Pos(),
					"map literal allocates on the hot path; hoist the map out of the per-call path")
			}
		}
		for _, el := range x.Elts {
			s.walkExpr(el, ctx)
		}
	case *ast.FuncLit:
		s.walkFuncLit(x, ctx, false)
	case *ast.BinaryExpr:
		s.walkExpr(x.X, ctx)
		s.walkExpr(x.Y, ctx)
	case *ast.ParenExpr:
		s.walkExpr(x.X, ctx)
	case *ast.SelectorExpr:
		s.walkExpr(x.X, ctx)
	case *ast.IndexExpr:
		s.walkExpr(x.X, ctx)
		s.walkExpr(x.Index, ctx)
	case *ast.SliceExpr:
		s.walkExpr(x.X, ctx)
		s.walkExpr(x.Low, ctx)
		s.walkExpr(x.High, ctx)
		s.walkExpr(x.Max, ctx)
	case *ast.StarExpr:
		s.walkExpr(x.X, ctx)
	case *ast.TypeAssertExpr:
		s.walkExpr(x.X, ctx)
	case *ast.KeyValueExpr:
		s.walkExpr(x.Key, ctx)
		s.walkExpr(x.Value, ctx)
	}
}

// walkFuncLit checks a function literal for closure-allocation findings
// and scans its body as hot code (it was created on a hot path, so its
// body is presumed to run there).
func (s *hotScanner) walkFuncLit(lit *ast.FuncLit, ctx hotCtx, deferred bool) {
	if capt := capturedVar(s.pass, lit, s.fn); capt != "" {
		if ctx.inLoop {
			s.report("hotdefer", ctx, lit.Pos(),
				"closure capturing %q inside a loop allocates one closure cell per iteration; hoist the closure or pass the variable as a parameter", capt)
		} else if !deferred {
			s.report("hotpath", ctx, lit.Pos(),
				"closure capturing %q allocates on the hot path; use a named function or a preallocated task struct", capt)
		}
	}
	inner := &hotScanner{
		pass:   s.pass,
		graph:  s.graph,
		emit:   s.emit,
		why:    s.why,
		isRoot: false,
		fn:     lit,
	}
	inner.returned = returnedObjects(s.pass.Pkg.TypesInfo, lit.Body)
	inner.sliceVar = collectSliceDecls(s.pass.Pkg.TypesInfo, lit.Body)
	inner.walkStmt(lit.Body, hotCtx{inLoop: false, cold: ctx.cold})
}

// checkCall applies the call-site rules: builtin allocators, banned
// stdlib calls, allocating same-package callees, copying conversions,
// and interface boxing of arguments.
func (s *hotScanner) checkCall(call *ast.CallExpr, ctx hotCtx) {
	info := s.pass.Pkg.TypesInfo
	flagged := false

	// Conversions: T(x) where Fun is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isCopyConversion(info.TypeOf(call.Fun), info.TypeOf(call.Args[0])) {
			s.report("hotpath", ctx, call.Pos(),
				"string/[]byte conversion copies its operand on the hot path; keep one representation end to end")
		}
		for _, a := range call.Args {
			s.walkExpr(a, ctx)
		}
		return
	}

	// Builtins: make/new allocate; append grows.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin {
			switch id.Name {
			case "make":
				s.report("hotpath", ctx, call.Pos(),
					"make on the hot path allocates per call; hoist the buffer to a reused field, pool, or caller-provided scratch")
			case "new":
				s.report("hotpath", ctx, call.Pos(),
					"new on the hot path allocates per call; reuse a preallocated value")
			case "append":
				s.checkAppend(call, ctx)
			}
			for _, a := range call.Args {
				s.walkExpr(a, ctx)
			}
			return
		}
	}

	if callee := calleeFunc(info, call); callee != nil {
		if p := callee.Pkg(); p != nil {
			switch {
			case p.Path() == "fmt":
				s.report("hotpath", ctx, call.Pos(),
					"fmt.%s on the hot path allocates (format buffer and boxed arguments); format off the hot path or precompute the string", callee.Name())
				flagged = true
			case p.Path() == "errors" && (callee.Name() == "New" || callee.Name() == "Join"):
				s.report("hotpath", ctx, call.Pos(),
					"errors.%s on the hot path allocates a new error per call; declare the error as a package-level var", callee.Name())
				flagged = true
			case p.Path() == "time" && isTimerAlloc(callee.Name()):
				s.report("hotpath", ctx, call.Pos(),
					"time.%s on the hot path allocates a runtime timer per call; create the timer once and Reset it", callee.Name())
				flagged = true
			case p == s.pass.Pkg.TypesPkg:
				if fi := s.graph.funcs[callee]; fi != nil && fi.allocRet {
					s.report("hotpath", ctx, call.Pos(),
						"call to %s on the hot path: it returns freshly allocated memory each call; fill a caller-owned buffer instead", fi.localName)
					flagged = true
				}
			}
		}
	}

	if !flagged {
		s.checkBoxing(call, ctx)
	}
	s.walkExpr(call.Fun, ctx)
	for _, a := range call.Args {
		s.walkExpr(a, ctx)
	}
}

// checkAppend flags appends whose target slice is a local declared
// without capacity — each growth reallocates the backing array.
func (s *hotScanner) checkAppend(call *ast.CallExpr, ctx hotCtx) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	info := s.pass.Pkg.TypesInfo
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return
	}
	if form, known := s.sliceVar[obj]; known && form == "nocap" {
		s.report("hotpath", ctx, call.Pos(),
			"append to %q, declared without capacity, reallocates as it grows on the hot path; preallocate with make(…, 0, n)", id.Name)
	}
}

// isTimerAlloc lists the time functions that allocate a runtime timer.
func isTimerAlloc(name string) bool {
	switch name {
	case "NewTimer", "NewTicker", "After", "Tick", "AfterFunc":
		return true
	}
	return false
}

// checkBoxing flags non-pointer-shaped concrete values passed where an
// interface parameter is expected: the copy is heap-allocated.
// Pointer-shaped types (pointers, chans, maps, funcs) are stored in the
// interface word directly; constants are materialised in static data.
func (s *hotScanner) checkBoxing(call *ast.CallExpr, ctx hotCtx) {
	sig, ok := s.pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := s.pass.Pkg.TypesInfo.Types[arg]
		if !ok || tv.Value != nil { // constants live in static data
			continue
		}
		at := tv.Type
		if at == nil || tv.IsNil() {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue
		}
		s.report("hotpath", ctx, arg.Pos(),
			"argument of concrete type %s is boxed into an interface at this call; the copy heap-allocates on every hot call", types.TypeString(at, types.RelativeTo(s.pass.Pkg.TypesPkg)))
	}
}

// capturedVar returns the name of one variable the literal captures
// from its enclosing function, or "" when it captures nothing that
// costs a closure cell (package-level references are free).
func capturedVar(pass *Pass, lit *ast.FuncLit, enclosing ast.Node) string {
	if enclosing == nil {
		return ""
	}
	info := pass.Pkg.TypesInfo
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Captured: declared inside the enclosing function but outside
		// the literal itself. Package-level variables fail the first
		// test; the literal's own params/locals fail the second.
		if obj.Pos() >= enclosing.Pos() && obj.Pos() <= enclosing.End() &&
			(obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
			name = obj.Name()
		}
		return name == ""
	})
	return name
}

// typeLabel renders the composite literal's type for a finding message.
func typeLabel(pass *Pass, lit *ast.CompositeLit) string {
	if t := pass.TypeOf(lit); t != nil {
		return types.TypeString(t, types.RelativeTo(pass.Pkg.TypesPkg))
	}
	return "T"
}

// terminatesExit reports whether a statement list ends in return or
// panic — the shape of a cold exit path, on which error-construction
// allocations are not steady-state cost.
func terminatesExit(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminatesExit(last.List)
	}
	return false
}
