package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatCmp flags == and != between floating-point operands outside
// test files. Exact float equality is almost always a latent bug in
// this codebase's hot paths — LOMO fitting, metric aggregation,
// simulator cost models — where values are the result of arithmetic
// and two mathematically equal expressions need not be bit-equal.
//
// One comparison is exempt: against an exact zero constant. Zero is
// representable exactly, and `x == 0` guards (division, empty-input
// checks) are deliberate and well-defined. Every other constant —
// 1.0, sentinels like -1 — is still flagged; use an explicit epsilon
// or a //lint:ignore with a reason.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Run: func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			if isTestFile(pass.Pkg.Fset, file.Pos()) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if !isFloat(pass.TypeOf(be.X)) && !isFloat(pass.TypeOf(be.Y)) {
					return true
				}
				if isZeroConst(pass, be.X) || isZeroConst(pass, be.Y) {
					return true
				}
				pass.Reportf("floatcmp", be.OpPos,
					"floating-point %s comparison; use an epsilon (math.Abs(a-b) < eps) or compare against exact zero", be.Op)
				return true
			})
		}
	},
}

// isFloat reports whether a type's underlying kind is float32/float64.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isZeroConst reports whether the expression is a compile-time
// constant exactly equal to zero.
func isZeroConst(pass *Pass, e ast.Expr) bool {
	if pass.Pkg.TypesInfo == nil {
		return false
	}
	tv, ok := pass.Pkg.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return false
	}
	f, _ := constant.Float64Val(v)
	return f == 0
}
