package lint

import (
	"go/ast"
	"go/types"
)

// DroppedErr flags expression statements that call a function
// returning an error and let the value fall on the floor. A dropped
// error in the dataset pipeline or the regression fit silently
// corrupts the numbers the paper's accuracy claims rest on.
//
// Deliberate discards stay expressible: assign to blank (`_ = f()`),
// or suppress with //lint:ignore droppederr <reason>. Conventional
// never-fails cases are exempt: fmt.Print/Printf/Println (best-effort
// console output), fmt.Fprint* writing directly to os.Stdout or
// os.Stderr, and fmt.Fprint* into *strings.Builder / *bytes.Buffer,
// whose Write methods are documented never to return an error.
var DroppedErr = &Analyzer{
	Name: "droppederr",
	Run: func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			if isTestFile(pass.Pkg.Fset, file.Pos()) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !returnsError(pass, call) || exemptPrinter(pass, call) {
					return true
				}
				pass.Reportf("droppederr", call.Pos(),
					"call returns an error that is silently discarded; handle it or assign to _ explicitly")
				return true
			})
		}
	},
}

// returnsError reports whether any result of the call has type error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	switch rt := t.(type) {
	case *types.Tuple:
		for i := 0; i < rt.Len(); i++ {
			if isErrorType(rt.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(rt)
	}
}

var errorIface = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorIface)
}

// exemptPrinter recognises calls whose error is impossible or
// conventionally unreportable: fmt.Print/Printf/Println,
// fmt.Fprint/Fprintf/Fprintln to literally os.Stdout / os.Stderr or to
// an in-memory builder, and any method on strings.Builder /
// bytes.Buffer (their Write* methods are documented never to return
// an error; Buffer panics on OOM instead).
func exemptPrinter(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if isBuilderType(pass.TypeOf(sel.X)) {
		return true
	}
	pkgName, fn := qualifiedName(pass, sel)
	if pkgName != "fmt" {
		return false
	}
	switch fn {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		if dst, ok := call.Args[0].(*ast.SelectorExpr); ok {
			dstPkg, dstName := qualifiedName(pass, dst)
			if dstPkg == "os" && (dstName == "Stdout" || dstName == "Stderr") {
				return true
			}
		}
		if isBuilderType(pass.TypeOf(call.Args[0])) {
			return true
		}
	}
	return false
}

// isBuilderType reports whether t is strings.Builder or bytes.Buffer,
// directly or behind a pointer.
func isBuilderType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t.String() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// qualifiedName resolves pkg.Name selectors to their package path's
// base name and identifier, or ("", "") for non-package selectors.
func qualifiedName(pass *Pass, sel *ast.SelectorExpr) (pkg, name string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok || pass.Pkg.TypesInfo == nil {
		return "", ""
	}
	pn, ok := pass.Pkg.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
