package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is hotalloc's inter-procedural substrate: an index of every
// function declaration in the load, the static call graph between them, and
// the //slicelint: annotations that seed and bound hot-path traversal.
//
// The call graph is deliberately static-calls-only. A call through an
// interface or a function value has no single callee; traversal stops there,
// and the concrete implementations that matter are annotated as their own
// seeds. That trade keeps the analysis sound-where-annotated without a
// whole-program pointer analysis.

// declSite is one function declaration with a body.
type declSite struct {
	pkg  *Package
	decl *ast.FuncDecl
	fn   *types.Func // the generic origin, never an instantiation
}

// annotation is one //slicelint:hotpath or //slicelint:coldpath directive.
type annotation struct {
	kind   string // "hotpath" | "coldpath"
	reason string // mandatory for coldpath
	pos    token.Pos
}

// program indexes one whole load.
type program struct {
	pkgs  []*Package
	decls map[*types.Func]*declSite
	calls map[*types.Func][]*types.Func
	notes map[*types.Func]annotation
}

// buildProgram indexes declarations, static call edges, and annotations
// across every package of the load.
func buildProgram(pkgs []*Package) *program {
	pr := &program{
		pkgs:  pkgs,
		decls: map[*types.Func]*declSite{},
		calls: map[*types.Func][]*types.Func{},
		notes: map[*types.Func]annotation{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				fn = fn.Origin()
				pr.decls[fn] = &declSite{pkg: pkg, decl: decl, fn: fn}
				if note, ok := sliceLintNote(decl); ok {
					pr.notes[fn] = note
				}
				pr.indexCalls(pkg, fn, decl.Body)
			}
		}
	}
	return pr
}

// indexCalls records fn's statically resolvable callees in source order.
func (pr *program) indexCalls(pkg *Package, fn *types.Func, body *ast.BlockStmt) {
	seen := map[*types.Func]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(pkg.Info, call)
		if callee == nil {
			return true
		}
		callee = callee.Origin()
		if !seen[callee] {
			seen[callee] = true
			pr.calls[fn] = append(pr.calls[fn], callee)
		}
		return true
	})
}

// sliceLintNote extracts the //slicelint: annotation from a declaration's
// doc comment group, if any.
func sliceLintNote(decl *ast.FuncDecl) (annotation, bool) {
	if decl.Doc == nil {
		return annotation{}, false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		rest, found := strings.CutPrefix(text, "slicelint:")
		if !found {
			continue
		}
		parts := strings.Fields(rest)
		if len(parts) == 0 {
			continue
		}
		return annotation{
			kind:   parts[0],
			reason: strings.Join(parts[1:], " "),
			pos:    c.Pos(),
		}, true
	}
	return annotation{}, false
}

// hotReachable walks the call graph from every //slicelint:hotpath seed and
// returns each reachable function mapped to the seed that reaches it.
// Traversal does not descend into //slicelint:coldpath functions — those are
// the declared amortized/fallback boundaries — and naturally stops at
// dynamic calls (no static callee) and at functions without bodies in the
// load (stdlib).
func (pr *program) hotReachable() map[*types.Func]*types.Func {
	reached := map[*types.Func]*types.Func{}
	var queue []*types.Func
	for fn, note := range pr.notes {
		if note.kind == "hotpath" {
			reached[fn] = fn
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range pr.calls[fn] {
			if _, ok := reached[callee]; ok {
				continue
			}
			if pr.notes[callee].kind == "coldpath" {
				continue
			}
			if _, ok := pr.decls[callee]; !ok {
				continue // no body in this load (stdlib, interface method)
			}
			reached[callee] = reached[fn]
			queue = append(queue, callee)
		}
	}
	return reached
}

// staticCallee resolves a call to the *types.Func it invokes, or nil for
// calls through function values, built-ins, and type conversions. Explicit
// generic instantiations (f[T](x), recorded as index expressions) resolve to
// the generic function.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// rootObject unwraps selectors and index expressions to the base variable.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			// For k.results the root is the field selection itself; use
			// the selected object (the field) so distinct fields of the
			// same receiver stay distinct.
			if sel, ok := info.Selections[x]; ok {
				return sel.Obj()
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// shortFuncName renders fn as pkg.Func or pkg.Recv.Method for messages.
func shortFuncName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name() // universe scope (error.Error)
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		name := types.TypeString(rt, func(p *types.Package) string { return "" })
		// Strip the leading dot the empty qualifier leaves behind and any
		// type-argument list.
		name = strings.TrimPrefix(name, ".")
		if i := strings.IndexByte(name, '['); i >= 0 {
			name = name[:i]
		}
		return fn.Pkg().Name() + "." + name + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
