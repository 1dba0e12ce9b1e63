package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point expressions in the
// numeric-kernel packages (internal/aggregate, internal/core). NaN
// propagation is load-bearing there — NaN == NaN is false, so an equality
// that looks like a tie-break silently changes behavior on NaN input — and
// rounding makes equality of computed floats order-sensitive, which breaks
// the combine-reordering freedom the slicing store relies on. Intentional
// comparisons must carry a //lint:ignore floateq <reason> stating the NaN
// story.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flags ==/!= between floating-point expressions in internal/aggregate and internal/core",
	Run:  runFloatEq,
}

func runFloatEq(p *Pass) {
	for _, pkg := range p.Pkgs {
		if !pkgPathHasSuffix(pkg, "internal/aggregate") && !pkgPathHasSuffix(pkg, "internal/core") {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if isFloat(pkg.Info.TypeOf(be.X)) || isFloat(pkg.Info.TypeOf(be.Y)) {
					p.Reportf(pkg, be.OpPos, "floating-point %s comparison: NaN and rounding make this unreliable; use math.IsNaN/epsilon or suppress with a reason", be.Op)
				}
				return true
			})
		}
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
