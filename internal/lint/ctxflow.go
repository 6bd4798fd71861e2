package lint

import (
	"go/ast"
	"go/types"
)

// NewCtxflow constructs the context-discipline analyzer for packages
// declared `ctxflow` in lint.config. The measured stack dials sockets,
// serves HTTP and runs worker pools (the TCP ring, the ops server, the
// DAG executor), and its cancellation story is only as good as its
// context plumbing. Four rules:
//
//  1. A context.Context parameter must come first. Context-last (or
//     context-in-the-middle) signatures break the call-site convention
//     every Go reader relies on and tend to indicate a context bolted
//     on after the fact.
//
//  2. No context.Context struct fields. A stored context outlives the
//     request it belonged to; pass it per call instead. The one
//     sanctioned exception — an options struct handed to a constructor —
//     gets a named `//lint:ignore ctxflow <reason>` directive.
//
//  3. No context.Background() or context.TODO() below the entry-point
//     roots declared by `ctxroot` stanzas in lint.config. Minting a
//     root context deep in library code detaches the work from the
//     caller's deadline and cancellation; only declared entry points
//     (main wiring, shutdown paths with their own budgets) may do it.
//     The `-why` chain names the function that should have threaded a
//     caller context through.
//
//  4. Deadline propagation into net ops: a function that receives a
//     context must not call the context-blind net.Dial/net.DialTimeout
//     or http.Get/Post/Head/PostForm/NewRequest — the ctx-aware
//     spellings (net.Dialer.DialContext, http.NewRequestWithContext)
//     exist precisely so the caller's deadline reaches the socket.
func NewCtxflow(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "context discipline: ctx-first params, no stored contexts, no root contexts below declared entry points, deadlines propagated into net ops",
		Run: func(pass *Pass) {
			if pass.Pkg.TypesInfo == nil || !cfg.ctxflowScope(pass.Pkg.ImportPath) {
				return
			}
			roots := cfg.ctxrootSet()
			for _, file := range pass.Pkg.Files {
				if isTestFile(pass.Pkg.Fset, file.Pos()) {
					continue
				}
				for _, decl := range file.Decls {
					switch d := decl.(type) {
					case *ast.GenDecl:
						checkCtxFields(pass, d)
					case *ast.FuncDecl:
						checkCtxFunc(pass, cfg, roots, d)
					}
				}
			}
		},
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// checkCtxFields flags struct fields of type context.Context (rule 2).
func checkCtxFields(pass *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			if isContextType(pass.TypeOf(field.Type)) {
				pass.Reportf("ctxflow", field.Pos(),
					"struct %s stores a context.Context; a stored context outlives its request — pass it as the first parameter of each method instead",
					ts.Name.Name)
			}
		}
	}
}

// checkCtxFunc applies rules 1, 3 and 4 to one declaration.
func checkCtxFunc(pass *Pass, cfg *Config, roots map[string]bool, fd *ast.FuncDecl) {
	hasCtx := false
	if fd.Type.Params != nil {
		pos := 0
		for _, field := range fd.Type.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			if isContextType(pass.TypeOf(field.Type)) {
				hasCtx = true
				if pos > 0 {
					pass.Reportf("ctxflow", field.Pos(),
						"context.Context is parameter %d of %s; the context goes first by convention",
						pos+1, localFuncName(fd))
				}
			}
			pos += n
		}
	}
	if fd.Body == nil {
		return
	}
	qname := pass.Pkg.ImportPath + "." + localFuncName(fd)
	isRoot := roots[qname]
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.Pkg.TypesInfo, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		switch f.Pkg().Path() {
		case "context":
			if (f.Name() == "Background" || f.Name() == "TODO") && !isRoot {
				pass.ReportWhyf("ctxflow", call.Pos(),
					qname+" is not declared a ctxroot entry point in lint.config",
					"context.%s below an entry point detaches this work from the caller's deadline and cancellation; accept a ctx parameter, or declare `ctxroot %s` with justification",
					f.Name(), qname)
			}
		case "net":
			if hasCtx && (f.Name() == "Dial" || f.Name() == "DialTimeout") {
				pass.Reportf("ctxflow", call.Pos(),
					"net.%s ignores the context this function already has; use net.Dialer.DialContext so the caller's deadline reaches the socket",
					f.Name())
			}
		case "net/http":
			if !hasCtx {
				return true
			}
			switch f.Name() {
			case "Get", "Post", "PostForm", "Head":
				pass.Reportf("ctxflow", call.Pos(),
					"http.%s ignores the context this function already has; build the request with http.NewRequestWithContext",
					f.Name())
			case "NewRequest":
				pass.Reportf("ctxflow", call.Pos(),
					"http.NewRequest ignores the context this function already has; use http.NewRequestWithContext")
			}
		}
		return true
	})
}
