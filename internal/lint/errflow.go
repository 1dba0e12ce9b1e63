package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// errorFlowPkgs are the packages where a dropped error corrupts durable
// state or hides a failed recovery: the slicing core, the engine (Run /
// checkpoint scheduling), the checkpoint codecs, and the chaos harness that
// asserts recovery works.
var errorFlowPkgs = []string{
	"internal/core",
	"internal/engine",
	"internal/checkpoint",
	"internal/chaos",
}

// ErrFlow enforces that errors returned inside the error-critical packages
// are consumed, not dropped:
//
//  1. A call whose result set includes an error, used as a bare statement,
//     drops every result — flagged ("unhandled error").
//  2. An assignment that puts an error result into the blank identifier
//     (v, _ := f()) silences it invisibly — flagged. The sanctioned escape
//     hatch is to keep the blank assignment and add
//     //lint:ignore errflow <why this error cannot matter>
//     so the decision is on record next to the code.
//  3. An error variable assigned with = whose value is never read afterwards
//     (the classic shadowed-err / dead-store bug: a later := introduces a
//     new err, or the function returns without checking) — flagged.
//
// Deliberately not flagged: defer/go statements (cleanup-path convention),
// and error-typed parameters or results (ownership belongs to the caller).
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "flags dropped, blank-discarded, and dead-stored errors in the error-critical packages",
	Run:  runErrFlow,
}

func runErrFlow(p *Pass) {
	for _, pkg := range p.Pkgs {
		if !slices.ContainsFunc(errorFlowPkgs, func(s string) bool { return pkgPathHasSuffix(pkg, s) }) {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				checkErrFlowFunc(p, pkg, decl)
			}
		}
	}
}

func checkErrFlowFunc(p *Pass, pkg *Package, decl *ast.FuncDecl) {
	info := pkg.Info
	type store struct {
		obj types.Object
		pos token.Pos
	}
	var stores []store // plain-= assignments to error variables
	reads := map[types.Object][]token.Pos{}
	var loops []ast.Node // for/range statements, for the in-loop read rule

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if ok && callReturnsError(info, call) >= 0 {
				p.Reportf(pkg, n.Pos(), "unhandled error: result of %s is dropped; handle it, return it, or assign to _ with a //lint:ignore errflow reason", callDesc(info, call))
			}
		case *ast.AssignStmt:
			checkBlankErrDiscard(p, pkg, n)
			if n.Tok == token.ASSIGN {
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						if obj := info.Uses[id]; obj != nil && isErrorType(obj.Type()) {
							stores = append(stores, store{obj, id.Pos()})
						}
					}
				}
			}
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && isErrorType(obj.Type()) {
				reads[obj] = append(reads[obj], n.Pos())
			}
		}
		return true
	})

	// A store is dead when no read of the same variable follows it — unless
	// both the store and a read share a loop, where "before" can execute
	// "after".
	inSameLoop := func(a, b token.Pos) bool {
		for _, l := range loops {
			if a >= l.Pos() && a <= l.End() && b >= l.Pos() && b <= l.End() {
				return true
			}
		}
		return false
	}
	for _, s := range stores {
		dead := true
		for _, r := range reads[s.obj] {
			if r > s.pos || inSameLoop(s.pos, r) {
				dead = false
				break
			}
		}
		if dead {
			p.Reportf(pkg, s.pos, "error assigned to %s is never read afterwards (shadowed or dead store): check it or return it", s.obj.Name())
		}
	}
}

// checkBlankErrDiscard flags `v, _ := f()` (and `_ = f()`) where the blank
// slot holds an error result.
func checkBlankErrDiscard(p *Pass, pkg *Package, as *ast.AssignStmt) {
	info := pkg.Info
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	errIdx := callReturnsError(info, call)
	if errIdx < 0 {
		return
	}
	if len(as.Lhs) == 1 && errIdx == 0 {
		if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok && id.Name == "_" {
			p.Reportf(pkg, as.Pos(), "error from %s discarded with _: add a //lint:ignore errflow reason or handle it", callDesc(info, call))
		}
		return
	}
	if errIdx < len(as.Lhs) {
		if id, ok := ast.Unparen(as.Lhs[errIdx]).(*ast.Ident); ok && id.Name == "_" {
			p.Reportf(pkg, as.Pos(), "error result of %s discarded with _: add a //lint:ignore errflow reason or handle it", callDesc(info, call))
		}
	}
}

// callReturnsError returns the index of the error result in call's result
// tuple, or -1. Type assertions and map reads (comma-ok bools) return -1.
func callReturnsError(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
		return -1
	default:
		if isErrorType(t) {
			return 0
		}
		return -1
	}
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil
}

// callDesc renders a call target for messages.
func callDesc(info *types.Info, call *ast.CallExpr) string {
	if fn := staticCallee(info, call); fn != nil {
		return shortFuncName(fn)
	}
	return "call"
}
