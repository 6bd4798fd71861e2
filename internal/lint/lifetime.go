package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NewLifetime constructs the resource-lifetime analyzer: a path-aware
// abstract interpretation of acquire→release obligations in packages
// declared `lifetime` in lint.config. Every resource acquired on some
// path — a dialled connection, an opened file, a started ticker, a
// context cancel func — must, on every path out of the function, be
// released, deferred, or have its ownership visibly transferred
// (returned to the caller, stored in a struct, handed to a goroutine,
// or passed to a function that takes it). A return statement reachable
// with a live, unreleased obligation is the leak the daemonised
// measured stack cannot afford.
//
// The interpretation is branch-cloned: if/else, switch and select each
// walk a copy of the abstract state, and a path that releases before
// returning is clean even when a sibling path releases elsewhere. Two
// idioms get first-class treatment:
//
//   - the error guard: `c, err := net.Dial(…); if err != nil { return err }`
//     is not a leak — on the error path the resource was never acquired;
//   - a cold exit (panic, os.Exit, log.Fatal) discharges everything: the
//     process is dying and the kernel reaps its descriptors.
//
// It is also interprocedural, two ways. Same-package constructor
// returns propagate: a function that returns a freshly acquired
// resource transfers the obligation to its call sites, which are then
// tracked with the same release method (the `-why` chain names the
// constructor). And passing a tracked resource to a same-package
// function consults that callee's body: a callee that releases the
// parameter discharges the obligation, one that stores or forwards it
// takes ownership, and one that merely uses it borrows — the caller
// still owes the release. Cross-package calls conservatively take
// ownership.
//
// The acquire set is built in: net dials/listens/accepts, os file
// opens, time.NewTicker/NewTimer, and the cancel funcs of
// context.WithCancel/WithTimeout/WithDeadline, plus the same-package
// constructors inferred from them.
//
// Separately, the analyzer checks sync.WaitGroup accounting around
// goroutine launches: an Add inside the goroutine it accounts for races
// Wait, and a non-deferred Done below a conditional return can be
// skipped. Both are reported under this analyzer's name.
func NewLifetime(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "lifetime",
		Run: func(pass *Pass) {
			if pass.Pkg.TypesInfo == nil || !cfg.lifetimeScope(pass.Pkg.ImportPath) {
				return
			}
			w := newLifeWalker(pass)
			w.inferConstructors()
			for _, fd := range w.declOrder {
				w.checkFunc(fd)
			}
		},
	}
}

// acquireSpec describes one recognised acquire function.
type acquireSpec struct {
	release string // method owed by the result; "" means the result is itself the release func
	what    string // human description of the resource
	result  int    // index of the obligated result in the call's result tuple
	via     string // constructor chain for -why, "" for direct acquires
}

// builtinAcquires is the always-on acquire set; inferred same-package
// constructors extend it.
func builtinAcquires() map[string]acquireSpec {
	m := map[string]acquireSpec{}
	add := func(spec acquireSpec, names ...string) {
		for _, n := range names {
			m[n] = spec
		}
	}
	add(acquireSpec{release: "Close", what: "network connection"},
		"net.Dial", "net.DialTimeout", "net.DialTCP", "net.DialUDP", "net.DialIP", "net.DialUnix",
		"net.Dialer.Dial", "net.Dialer.DialContext",
		"net.Listener.Accept", "net.TCPListener.Accept", "net.TCPListener.AcceptTCP",
		"crypto/tls.Dial")
	add(acquireSpec{release: "Close", what: "listener"},
		"net.Listen", "net.ListenTCP", "net.ListenUDP", "net.ListenPacket", "net.ListenConfig.Listen")
	add(acquireSpec{release: "Close", what: "file"},
		"os.Open", "os.Create", "os.OpenFile", "os.CreateTemp")
	add(acquireSpec{release: "Stop", what: "ticker"}, "time.NewTicker")
	add(acquireSpec{release: "Stop", what: "timer"}, "time.NewTimer")
	add(acquireSpec{what: "context cancel func", result: 1},
		"context.WithCancel", "context.WithTimeout", "context.WithDeadline", "context.WithCancelCause",
		"os/signal.NotifyContext")
	return m
}

// qualifiedFuncName renders a *types.Func as its lint.config-addressable
// qualified name: "import/path.Func" or "import/path.Recv.Method"
// (pointer receivers spelled the same as value receivers). "" for
// builtins and functions without a package.
func qualifiedFuncName(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	name := f.Pkg().Path() + "."
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name += named.Obj().Name() + "."
		}
	}
	return name + f.Name()
}

// resource is one live obligation: a value that must be released before
// the function gives it up.
type resource struct {
	aliases  map[types.Object]bool // every local identifier bound to the resource
	spec     acquireSpec
	acquired string // rendering of the acquire call for messages
	pos      token.Pos
	errObj   types.Object // error result paired with the acquire; nil if none
	reported bool         // one finding per acquire site, not per leaking path
}

// releaseName renders what discharging the obligation looks like.
func (r *resource) releaseName() string {
	if r.spec.release == "" {
		return "calling it"
	}
	return r.spec.release
}

// lifeState is the abstract state of one control-flow path: the set of
// still-pending obligations. Branches clone it; merges union it (a
// resource pending on any surviving path is pending after the merge).
type lifeState struct {
	pending    map[*resource]bool
	terminated bool
}

func newLifeState() *lifeState {
	return &lifeState{pending: map[*resource]bool{}}
}

func (s *lifeState) clone() *lifeState {
	c := &lifeState{pending: make(map[*resource]bool, len(s.pending)), terminated: s.terminated}
	for r := range s.pending {
		c.pending[r] = true
	}
	return c
}

// find returns the pending resource aliased by obj, or nil.
func (s *lifeState) find(obj types.Object) *resource {
	if obj == nil {
		return nil
	}
	for r := range s.pending {
		if r.aliases[obj] {
			return r
		}
	}
	return nil
}

// dropErrPaired removes obligations paired with the given error object:
// on a path where that error is known non-nil, the acquire failed and
// there is nothing to release.
func (s *lifeState) dropErrPaired(errObj types.Object) {
	if errObj == nil {
		return
	}
	for r := range s.pending {
		if r.errObj == errObj {
			delete(s.pending, r)
		}
	}
}

// paramUse summarises how a same-package callee treats one parameter.
type paramUse struct {
	escapes bool            // stored, returned, forwarded cross-package, captured — callee takes ownership
	called  map[string]bool // method names the callee invokes on the parameter
}

// lifeWalker holds the per-package machinery shared by every function
// walk: the acquire set (builtin + inferred constructors), declaration
// index and the callee-disposition cache.
type lifeWalker struct {
	pass      *Pass
	acquires  map[string]acquireSpec
	decls     map[*types.Func]*ast.FuncDecl
	declOrder []*ast.FuncDecl
	dispos    map[string]paramUse // keyed by qualifiedName + "\x00" + paramIndex
	infer     bool                // constructor-inference mode: collect return escapes, report nothing
	retSpec   *acquireSpec        // set in infer mode when an owned resource escapes via return
}

func newLifeWalker(pass *Pass) *lifeWalker {
	w := &lifeWalker{
		pass:     pass,
		acquires: builtinAcquires(),
		decls:    map[*types.Func]*ast.FuncDecl{},
		dispos:   map[string]paramUse{},
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
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				w.decls[obj] = fd
				w.declOrder = append(w.declOrder, fd)
			}
		}
	}
	return w
}

// inferConstructors runs the walk in inference mode to a fixpoint: a
// function that returns a freshly acquired resource becomes an acquire
// site itself, so its same-package callers inherit the obligation.
func (w *lifeWalker) inferConstructors() {
	w.infer = true
	for round := 0; round < 4; round++ {
		added := false
		for _, fd := range w.declOrder {
			q := w.pass.Pkg.ImportPath + "." + localFuncName(fd)
			if _, ok := w.acquires[q]; ok {
				continue
			}
			w.retSpec = nil
			st := newLifeState()
			w.walkStmts(fd.Body.List, st)
			if w.retSpec != nil {
				spec := *w.retSpec
				spec.result = 0
				if spec.via == "" {
					spec.via = localFuncName(fd)
				} else {
					spec.via = localFuncName(fd) + " → " + spec.via
				}
				w.acquires[q] = spec
				added = true
			}
		}
		if !added {
			break
		}
	}
	w.infer = false
	w.retSpec = nil
}

// checkFunc reports the leaks of one function: the main body as one
// path walk, each launched goroutine body as its own (a goroutine is
// its own control-flow universe with its own exits), plus the
// WaitGroup accounting checks.
func (w *lifeWalker) checkFunc(fd *ast.FuncDecl) {
	st := newLifeState()
	w.walkStmts(fd.Body.List, st)
	if !st.terminated {
		w.reportPending(st, fd.Body.End())
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				gst := newLifeState()
				w.walkStmts(lit.Body.List, gst)
				if !gst.terminated {
					w.reportPending(gst, lit.Body.End())
				}
			}
		}
		return true
	})
	w.checkWaitGroups(fd)
}

// reportPending emits one finding per leaked acquire site on the path
// ending at end.
func (w *lifeWalker) reportPending(st *lifeState, end token.Pos) {
	for r := range st.pending {
		if r.reported {
			continue
		}
		r.reported = true
		line := w.pass.Pkg.Fset.Position(end).Line
		why := fmt.Sprintf("acquired by %s; the exit at line %d is reached with the obligation still pending", r.acquired, line)
		if r.spec.via != "" {
			why = "via constructor " + r.spec.via + "; " + why
		}
		w.pass.ReportWhyf("lifetime", r.pos, why,
			"%s from %s is not released on every path: the exit at line %d is reachable without %s; release it, defer the release, or transfer ownership",
			r.spec.what, r.acquired, line, r.releaseName())
	}
}

func (w *lifeWalker) walkStmts(list []ast.Stmt, st *lifeState) {
	for _, s := range list {
		if st.terminated {
			return
		}
		w.walkStmt(s, st)
	}
}

func (w *lifeWalker) walkStmt(s ast.Stmt, st *lifeState) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(x.List, st)
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if w.isExitCall(call) {
				// Cold exit: the process dies here, the kernel releases
				// everything. Panics unwind through defers, which were
				// already credited.
				st.pending = map[*resource]bool{}
				st.terminated = true
				return
			}
			if spec, name, ok := w.acquireCall(call); ok && spec.release != "" {
				if !w.infer {
					w.pass.Reportf("lifetime", call.Pos(),
						"result of %s is discarded; the %s it returns owes a %s that can now never happen",
						name, spec.what, spec.release)
				}
				return
			}
		}
		w.scanUses(x.X, st)
	case *ast.AssignStmt:
		w.walkAssign(x, st)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					w.walkValueSpec(vs, st)
				}
			}
		}
	case *ast.DeferStmt:
		w.walkDefer(x, st)
	case *ast.GoStmt:
		// The goroutine takes ownership of everything it can see; its own
		// body is walked as a separate path universe by checkFunc.
		w.untrackIn(x.Call, st)
	case *ast.ReturnStmt:
		for _, res := range x.Results {
			w.returnExpr(res, st)
		}
		if w.infer {
			st.terminated = true
			return
		}
		w.reportPending(st, x.Pos())
		st.terminated = true
	case *ast.IfStmt:
		w.walkIf(x, st)
	case *ast.ForStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, st)
		}
		if x.Cond != nil {
			w.scanUses(x.Cond, st)
		}
		body := st.clone()
		body.terminated = false
		w.walkStmts(x.Body.List, body)
		if x.Post != nil && !body.terminated {
			w.walkStmt(x.Post, body)
		}
		for r := range body.pending {
			st.pending[r] = true
		}
		if x.Cond == nil && body.terminated {
			// `for { … }` whose body always exits the function.
			st.terminated = true
		}
	case *ast.RangeStmt:
		w.scanUses(x.X, st)
		body := st.clone()
		body.terminated = false
		w.walkStmts(x.Body.List, body)
		for r := range body.pending {
			st.pending[r] = true
		}
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, st)
		}
		if x.Tag != nil {
			w.scanUses(x.Tag, st)
		}
		w.walkCases(x.Body, st, hasDefaultClause(x.Body))
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, st)
		}
		w.walkCases(x.Body, st, hasDefaultClause(x.Body))
	case *ast.SelectStmt:
		// A select always executes exactly one clause (it blocks until one
		// is ready), so the clause set is exhaustive even without default.
		w.walkCases(x.Body, st, true)
	case *ast.SendStmt:
		w.scanUses(x.Chan, st)
		w.scanUses(x.Value, st)
	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt, st)
	case *ast.BranchStmt:
		if x.Tok == token.BREAK || x.Tok == token.CONTINUE || x.Tok == token.GOTO {
			st.terminated = true
		}
	}
}

// walkCases clones the state per case clause and unions the survivors —
// a resource pending on any path through the switch/select stays
// pending after it. When the clause set is exhaustive (any select, or a
// switch with a default clause) control cannot skip past every clause,
// so the pre-state is NOT part of the union: a resource released in
// every clause is released, full stop. Non-exhaustive switches keep the
// pre-state because no case may match.
func (w *lifeWalker) walkCases(body *ast.BlockStmt, st *lifeState, exhaustive bool) {
	merged := map[*resource]bool{}
	if !exhaustive || len(body.List) == 0 {
		for r := range st.pending {
			merged[r] = true
		}
	}
	allTerminated := len(body.List) > 0
	for _, c := range body.List {
		cs := st.clone()
		cs.terminated = false
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.scanUses(e, cs)
			}
			w.walkStmts(cc.Body, cs)
		case *ast.CommClause:
			if cc.Comm != nil {
				w.walkStmt(cc.Comm, cs)
			}
			w.walkStmts(cc.Body, cs)
		}
		if !cs.terminated {
			allTerminated = false
		}
		for r := range cs.pending {
			merged[r] = true
		}
	}
	st.pending = merged
	if exhaustive && allTerminated {
		// Every clause returns/exits: nothing after the statement runs.
		st.terminated = true
	}
}

// hasDefaultClause reports whether a switch body contains a default
// case (a CaseClause with a nil expression list).
func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// walkIf is where the path sensitivity lives: each branch walks a clone
// of the state, the error-guard idiom prunes failed acquires, and the
// merge unions the pendings of the branches that fall through.
func (w *lifeWalker) walkIf(x *ast.IfStmt, st *lifeState) {
	if x.Init != nil {
		w.walkStmt(x.Init, st)
	}
	w.scanUses(x.Cond, st)
	errNonNil, errNil := w.errGuard(x.Cond)

	thenSt := st.clone()
	thenSt.terminated = false
	thenSt.dropErrPaired(errNonNil) // inside `if err != nil`, err-paired acquires failed
	w.walkStmts(x.Body.List, thenSt)

	elseSt := st.clone()
	elseSt.terminated = false
	elseSt.dropErrPaired(errNil) // inside/after `if err == nil`'s negation, likewise
	switch e := x.Else.(type) {
	case *ast.BlockStmt:
		w.walkStmts(e.List, elseSt)
	case *ast.IfStmt:
		w.walkStmt(e, elseSt)
	}

	st.pending = map[*resource]bool{}
	st.terminated = thenSt.terminated && elseSt.terminated
	if !thenSt.terminated {
		for r := range thenSt.pending {
			st.pending[r] = true
		}
	}
	if !elseSt.terminated {
		for r := range elseSt.pending {
			st.pending[r] = true
		}
	}
}

// errGuard recognises `x != nil` / `x == nil` conditions over an
// error-typed identifier and returns the identifier's object in the
// matching slot.
func (w *lifeWalker) errGuard(cond ast.Expr) (nonNil, isNil types.Object) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, nil
	}
	id, other := be.X, be.Y
	if isNilIdent(id) {
		id, other = other, id
	}
	if !isNilIdent(other) {
		return nil, nil
	}
	ident, ok := id.(*ast.Ident)
	if !ok {
		return nil, nil
	}
	obj := w.objOf(ident)
	if obj == nil || !isErrorType(obj.Type()) {
		return nil, nil
	}
	if be.Op == token.NEQ {
		return obj, nil
	}
	return nil, obj
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// walkAssign handles acquires, alias moves, and generic RHS uses.
func (w *lifeWalker) walkAssign(x *ast.AssignStmt, st *lifeState) {
	// Acquire: a single call whose callee is in the acquire set.
	if len(x.Rhs) == 1 {
		if call, ok := x.Rhs[0].(*ast.CallExpr); ok {
			if spec, name, ok := w.acquireCall(call); ok {
				w.scanUses(call, st) // the call's own arguments may consume resources
				w.bindAcquire(x.Lhs, call, spec, name, st)
				return
			}
		}
	}
	for i, rhs := range x.Rhs {
		// Alias move: `c2 := c` binds another name to the same obligation.
		if id, ok := rhs.(*ast.Ident); ok && i < len(x.Lhs) {
			if r := st.find(w.objOf(id)); r != nil {
				if lhs, ok := x.Lhs[i].(*ast.Ident); ok && lhs.Name != "_" {
					if obj := w.objOf(lhs); obj != nil {
						r.aliases[obj] = true
						continue
					}
				}
				// Stored into a field, slice or map: ownership moves to the
				// container; its lifecycle is a separate concern.
				delete(st.pending, r)
				continue
			}
		}
		w.scanUses(rhs, st)
	}
}

func (w *lifeWalker) walkValueSpec(vs *ast.ValueSpec, st *lifeState) {
	if len(vs.Values) == 1 {
		if call, ok := vs.Values[0].(*ast.CallExpr); ok {
			if spec, name, ok := w.acquireCall(call); ok {
				w.scanUses(call, st)
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				w.bindAcquire(lhs, call, spec, name, st)
				return
			}
		}
	}
	for _, v := range vs.Values {
		w.scanUses(v, st)
	}
}

// bindAcquire creates the obligation for an acquire call's results.
func (w *lifeWalker) bindAcquire(lhs []ast.Expr, call *ast.CallExpr, spec acquireSpec, name string, st *lifeState) {
	if spec.result >= len(lhs) {
		return
	}
	target := lhs[spec.result]
	id, ok := target.(*ast.Ident)
	if !ok {
		return // stored straight into a field or slice: the container owns it
	}
	if id.Name == "_" {
		if !w.infer {
			w.pass.Reportf("lifetime", call.Pos(),
				"%s from %s is assigned to _; its %s can now never happen",
				spec.what, name, spec.release+"()")
		}
		return
	}
	obj := w.objOf(id)
	if obj == nil {
		return
	}
	r := &resource{
		aliases:  map[types.Object]bool{obj: true},
		spec:     spec,
		acquired: name,
		pos:      call.Pos(),
	}
	for _, l := range lhs {
		if lid, ok := l.(*ast.Ident); ok && lid != id && lid.Name != "_" {
			if o := w.objOf(lid); o != nil && isErrorType(o.Type()) {
				r.errObj = o
			}
		}
	}
	st.pending[r] = true
}

// walkDefer credits deferred releases: `defer c.Close()`,
// `defer cancel()`, a deferred closure that releases captured
// resources, or a deferred same-package helper whose parameter
// disposition releases.
func (w *lifeWalker) walkDefer(x *ast.DeferStmt, st *lifeState) {
	call := x.Call
	if w.dischargeReleaseCall(call, st) {
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// Anything the deferred closure touches is its responsibility
		// now: releases in its body discharge, other captures transfer
		// ownership to the closure.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				w.dischargeReleaseCall(c, st)
			}
			return true
		})
		w.untrackIn(lit, st)
		return
	}
	w.callArgs(call, st)
}

// dischargeReleaseCall discharges an obligation met by the call:
// `c.Close()` (any wrapping of the receiver ident) or `cancel()`.
func (w *lifeWalker) dischargeReleaseCall(call *ast.CallExpr, st *lifeState) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id := baseIdent(fun.X); id != nil {
			if r := st.find(w.objOf(id)); r != nil && r.spec.release == fun.Sel.Name {
				delete(st.pending, r)
				return true
			}
		}
	case *ast.Ident:
		if r := st.find(w.objOf(fun)); r != nil && r.spec.release == "" {
			delete(st.pending, r)
			return true
		}
	}
	return false
}

// returnExpr processes one return result: returning a tracked resource
// (alone or inside a composite literal) transfers ownership to the
// caller; in inference mode it marks the function as a constructor.
func (w *lifeWalker) returnExpr(e ast.Expr, st *lifeState) {
	// `return f.Close()`: a release, not a transfer — must win over the
	// tracked-ident scan below or inference mistakes it for a
	// constructor return.
	if call, ok := e.(*ast.CallExpr); ok {
		if w.dischargeReleaseCall(call, st) {
			return
		}
	}
	transferred := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if r := st.find(w.objOf(id)); r != nil {
				if w.infer && w.retSpec == nil {
					spec := r.spec
					w.retSpec = &spec
				}
				delete(st.pending, r)
				transferred = true
			}
		}
		return true
	})
	if transferred {
		return
	}
	// `return os.Open(p)`: a constructor forwarding the acquire directly.
	if call, ok := e.(*ast.CallExpr); ok {
		if spec, _, ok := w.acquireCall(call); ok && spec.result == 0 {
			if w.infer && w.retSpec == nil {
				w.retSpec = &spec
			}
			return
		}
	}
	w.scanUses(e, st)
}

// scanUses walks an expression, classifying every appearance of a
// tracked resource. Benign uses (method receiver, field access,
// comparisons) keep the obligation; release calls discharge it; call
// arguments consult same-package callee dispositions; everything else
// — captures, stores, sends, unknown sinks — conservatively transfers
// ownership and stops tracking.
func (w *lifeWalker) scanUses(e ast.Expr, st *lifeState) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		if r := st.find(w.objOf(x)); r != nil {
			delete(st.pending, r) // unclassified use: assume ownership moved
		}
	case *ast.CallExpr:
		if w.dischargeReleaseCall(x, st) {
			for _, a := range x.Args {
				w.scanUses(a, st)
			}
			return
		}
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			// A method call on the resource is a borrow; scan deeper in
			// case the receiver expression itself contains calls.
			if id := baseIdent(sel.X); id == nil || st.find(w.objOf(id)) == nil {
				w.scanUses(sel.X, st)
			}
		} else if _, ok := x.Fun.(*ast.FuncLit); ok {
			w.untrackIn(x.Fun, st)
		}
		w.callArgs(x, st)
	case *ast.SelectorExpr:
		// Field access on a tracked resource is a borrow.
		if id := baseIdent(x.X); id != nil && st.find(w.objOf(id)) != nil {
			return
		}
		w.scanUses(x.X, st)
	case *ast.BinaryExpr:
		// Comparisons (`c != nil`) and arithmetic never move ownership.
		if _, ok := x.X.(*ast.Ident); !ok {
			w.scanUses(x.X, st)
		}
		if _, ok := x.Y.(*ast.Ident); !ok {
			w.scanUses(x.Y, st)
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			// Address-of lets the pointer escape anywhere: ownership moves.
			w.untrackIn(x.X, st)
			return
		}
		// Receives (`<-t.C`), negation, etc. read through the resource
		// without moving it — a borrow.
		w.scanUses(x.X, st)
	case *ast.ParenExpr:
		w.scanUses(x.X, st)
	case *ast.TypeAssertExpr:
		w.scanUses(x.X, st)
	case *ast.StarExpr:
		w.scanUses(x.X, st)
	case *ast.IndexExpr:
		w.scanUses(x.X, st)
		w.scanUses(x.Index, st)
	case *ast.FuncLit:
		w.untrackIn(x, st)
	default:
		w.untrackIn(e, st)
	}
}

// callArgs applies the ownership policy to a call's arguments.
func (w *lifeWalker) callArgs(call *ast.CallExpr, st *lifeState) {
	callee := calleeFunc(w.pass.Pkg.TypesInfo, call)
	for i, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			w.scanUses(arg, st)
			continue
		}
		r := st.find(w.objOf(id))
		if r == nil {
			w.scanUses(arg, st)
			continue
		}
		switch {
		case callee != nil && callee.Pkg() == w.pass.Pkg.TypesPkg:
			use := w.paramDisposition(callee, i, map[string]bool{})
			switch {
			case use.called[r.spec.release]:
				delete(st.pending, r) // callee releases it
			case use.escapes:
				delete(st.pending, r) // callee takes ownership
			}
			// Otherwise the callee only borrows; the obligation stays here.
		default:
			// Unknown or cross-package sink: assume it takes ownership.
			delete(st.pending, r)
		}
	}
}

// untrackIn drops every obligation whose alias appears anywhere in the
// node — the blanket ownership-transfer rule for captures, goroutines
// and composite stores.
func (w *lifeWalker) untrackIn(n ast.Node, st *lifeState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(nd ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok {
			if r := st.find(w.objOf(id)); r != nil {
				delete(st.pending, r)
			}
		}
		return true
	})
}

// acquireCall resolves a call against the acquire set, returning the
// spec and the callee's qualified name.
func (w *lifeWalker) acquireCall(call *ast.CallExpr) (acquireSpec, string, bool) {
	callee := calleeFunc(w.pass.Pkg.TypesInfo, call)
	q := qualifiedFuncName(callee)
	if q == "" {
		return acquireSpec{}, "", false
	}
	spec, ok := w.acquires[q]
	return spec, q, ok
}

// paramDisposition summarises, with memoisation and a cycle guard, how
// a same-package callee treats its idx-th parameter: the method names
// it invokes on it and whether it stores, returns or forwards it.
func (w *lifeWalker) paramDisposition(fn *types.Func, idx int, seen map[string]bool) paramUse {
	key := fmt.Sprintf("%s\x00%d", qualifiedFuncName(fn), idx)
	if use, ok := w.dispos[key]; ok {
		return use
	}
	if seen[key] {
		return paramUse{escapes: true} // recursion: give up conservatively
	}
	seen[key] = true
	use := paramUse{called: map[string]bool{}}
	fd := w.decls[fn]
	obj := w.paramObj(fd, idx)
	if fd == nil || obj == nil {
		use.escapes = true
		w.dispos[key] = use
		return use
	}
	info := w.pass.Pkg.TypesInfo
	receiverOf := map[*ast.Ident]bool{} // idents in method-call receiver position
	argPolicy := map[*ast.Ident]bool{}  // idents handled by forwarding analysis
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id := baseIdent(sel.X); id != nil && info.Uses[id] == obj {
				receiverOf[id] = true
				use.called[sel.Sel.Name] = true
			}
		}
		callee := calleeFunc(info, call)
		for i, a := range call.Args {
			id, ok := a.(*ast.Ident)
			if !ok || info.Uses[id] != obj {
				continue
			}
			argPolicy[id] = true
			if callee != nil && callee.Pkg() == w.pass.Pkg.TypesPkg {
				sub := w.paramDisposition(callee, i, seen)
				if sub.escapes {
					use.escapes = true
				}
				for m := range sub.called {
					use.called[m] = true
				}
			} else {
				use.escapes = true // forwarded out of the package
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj || receiverOf[id] || argPolicy[id] {
			return true
		}
		// Any other appearance — returned, stored, captured, compared…
		// Comparisons are benign but rare enough in helpers that the
		// conservative answer (ownership taken, caller stops tracking,
		// no finding) is the right default.
		use.escapes = true
		return true
	})
	w.dispos[key] = use
	return use
}

// paramObj resolves the types.Object of a declaration's idx-th
// parameter (flattening multi-name fields).
func (w *lifeWalker) paramObj(fd *ast.FuncDecl, idx int) types.Object {
	if fd == nil || fd.Type.Params == nil {
		return nil
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if i == idx {
				return w.pass.Pkg.TypesInfo.Defs[name]
			}
			i++
		}
	}
	return nil
}

// objOf resolves an identifier to its object (use or def).
func (w *lifeWalker) objOf(id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	info := w.pass.Pkg.TypesInfo
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// baseIdent unwraps parens, type assertions and selectors down to the
// root identifier of an expression, nil when there is none.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isExitCall reports calls that terminate the process: panic, os.Exit,
// runtime.Goexit, log.Fatal*, and the testing fatals.
func (w *lifeWalker) isExitCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			_, isBuiltin := w.pass.Pkg.TypesInfo.Uses[fun].(*types.Builtin)
			return isBuiltin
		}
	case *ast.SelectorExpr:
		f := calleeFunc(w.pass.Pkg.TypesInfo, call)
		if f == nil || f.Pkg() == nil {
			return false
		}
		switch f.Pkg().Path() {
		case "os":
			return f.Name() == "Exit"
		case "runtime":
			return f.Name() == "Goexit"
		case "log":
			return f.Name() == "Fatal" || f.Name() == "Fatalf" || f.Name() == "Fatalln"
		}
	}
	return false
}

// --- WaitGroup accounting ---------------------------------------------

// checkWaitGroups flags the two Add/Done shapes that break the
// happens-before contract around goroutine launches.
func (w *lifeWalker) checkWaitGroups(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		w.checkGoroutineWG(lit)
		return true
	})
}

// checkGoroutineWG inspects one goroutine literal: an Add on a captured
// WaitGroup races the spawner's Wait, and a plain Done below an earlier
// conditional return can be skipped.
func (w *lifeWalker) checkGoroutineWG(lit *ast.FuncLit) {
	var firstReturn token.Pos
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		switch x := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			if x != lit {
				return // nested goroutine/closure: its own analysis
			}
			walk(x.Body, inDefer)
			return
		case *ast.DeferStmt:
			walk(x.Call, true)
			return
		case *ast.ReturnStmt:
			if firstReturn == token.NoPos {
				firstReturn = x.Pos()
			}
			return
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && w.isWaitGroupRecv(sel.X) {
				switch sel.Sel.Name {
				case "Add":
					if id := baseIdent(sel.X); id != nil {
						if obj := w.objOf(id); obj != nil && !within(obj.Pos(), lit) {
							w.pass.Reportf("lifetime", x.Pos(),
								"sync.WaitGroup.Add inside the goroutine it accounts for; Wait can pass before this runs — call Add before the go statement")
						}
					}
				case "Done":
					if !inDefer && firstReturn != token.NoPos && firstReturn < x.Pos() {
						w.pass.ReportWhyf("lifetime", x.Pos(),
							fmt.Sprintf("a return at line %d precedes this Done", w.pass.Pkg.Fset.Position(firstReturn).Line),
							"sync.WaitGroup.Done can be skipped by the earlier conditional return; defer wg.Done() at the top of the goroutine")
					}
				}
			}
		}
		// Generic recursion over children.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c, inDefer)
			return false
		})
	}
	walk(lit.Body, false)
}

// isWaitGroupRecv reports whether an expression has type sync.WaitGroup
// (or pointer to it).
func (w *lifeWalker) isWaitGroupRecv(e ast.Expr) bool {
	t := w.pass.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// within reports whether pos falls inside the literal's extent.
func within(pos token.Pos, lit *ast.FuncLit) bool {
	return pos >= lit.Pos() && pos <= lit.End()
}
