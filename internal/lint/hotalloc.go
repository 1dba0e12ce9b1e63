package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces the PERFORMANCE.md allocation contract on the batched
// hot path: every function annotated //slicelint:hotpath — and everything it
// transitively calls through static edges — must be allocation-free in
// steady state. Within that closure the analyzer flags:
//
//   - heap-escaping composite literals (&T{...}, new(T)) and any slice or
//     map literal;
//   - make() of slices, maps, and channels;
//   - append whose destination slice is a function-local variable (growing
//     a persistent field or parameter buffer is amortized and allowed;
//     growing a local is a fresh allocation every call);
//   - map creation and map iteration (allocation + nondeterministic order);
//   - interface boxing: passing or converting a non-pointer-shaped concrete
//     value to an interface type allocates the box;
//   - fmt calls and non-constant string concatenation;
//   - closures that capture by reference a variable the enclosing function
//     writes — the compiler moves such variables to the heap;
//   - conversions that copy ([]byte(s), string(b), slice conversions).
//
// Functions that obtain their objects from a sync.Pool (a *.Get call in the
// body) are the designated miss-constructors: their allocation sites are
// whitelisted, because the pool amortizes them away in steady state.
//
// Traversal stops at //slicelint:coldpath functions — declared amortized or
// fallback boundaries (compaction, out-of-order repair, trigger emission) —
// which must carry a reason, and at dynamic calls (no static callee), whose
// hot concrete implementations are separately annotated as seeds. The
// runtime cross-check for what the traversal cannot see is the
// testing.AllocsPerRun gate in internal/core.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags heap allocations, boxing, and map iteration reachable from //slicelint:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Pass) {
	pr := buildProgram(p.Pkgs)
	for fn, note := range pr.notes {
		site := pr.decls[fn]
		switch note.kind {
		case "hotpath", "coldpath":
			if note.kind == "coldpath" && note.reason == "" {
				p.Reportf(site.pkg, note.pos, "//slicelint:coldpath needs a reason: why is %s off the hot path?", shortFuncName(fn))
			}
		default:
			p.Reportf(site.pkg, note.pos, "unknown //slicelint:%s annotation: want hotpath or coldpath", note.kind)
		}
	}
	reached := pr.hotReachable()
	for fn, seed := range reached {
		checkHotFunc(p, pr.decls[fn], seed)
	}
}

// checkHotFunc audits one function body in the hot closure.
func checkHotFunc(p *Pass, site *declSite, seed *types.Func) {
	info := site.pkg.Info
	body := site.decl.Body
	via := ""
	if seed != site.fn {
		via = " (hot via " + shortFuncName(seed) + ")"
	}
	report := func(pos token.Pos, format string, args ...any) {
		p.Reportf(site.pkg, pos, format+via, args...)
	}
	pooled := usesPool(info, body)
	written := writtenObjects(info, body)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND && !pooled {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "%s: &composite literal escapes to the heap", shortFuncName(site.fn))
				}
			}
		case *ast.CompositeLit:
			if pooled {
				return true
			}
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "%s: slice literal allocates", shortFuncName(site.fn))
			case *types.Map:
				report(n.Pos(), "%s: map literal allocates", shortFuncName(site.fn))
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					report(n.For, "%s: map iteration in the hot path (allocates an iterator and observes nondeterministic order)", shortFuncName(site.fn))
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) {
				report(n.Pos(), "%s: string concatenation allocates", shortFuncName(site.fn))
			}
		case *ast.FuncLit:
			for _, v := range capturedWrites(info, n, written) {
				report(n.Pos(), "%s: closure captures %s by reference (written in enclosing function; the variable moves to the heap)", shortFuncName(site.fn), v.Name())
			}
		case *ast.CallExpr:
			checkHotCall(report, info, site, n, pooled)
		}
		return true
	})
}

// checkHotCall audits one call site in a hot function.
func checkHotCall(report func(token.Pos, string, ...any), info *types.Info, site *declSite, call *ast.CallExpr, pooled bool) {
	name := shortFuncName(site.fn)
	// Built-ins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				if !pooled {
					report(call.Pos(), "%s: new() allocates", name)
				}
			case "make":
				if !pooled {
					report(call.Pos(), "%s: make() allocates", name)
				}
			case "append":
				if len(call.Args) > 0 && isLocalSlice(info, site.decl, call.Args[0]) {
					report(call.Pos(), "%s: append to a function-local slice allocates every call; grow a pooled or persistent buffer instead", name)
				}
			}
			return
		}
	}
	// Conversions.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		target := info.TypeOf(call)
		argT := info.TypeOf(call.Args[0])
		if target != nil && argT != nil {
			checkConversion(report, name, call, target, argT)
		}
		return
	}
	fn := staticCallee(info, call)
	if fn == nil {
		return
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		report(call.Pos(), "%s: fmt.%s allocates (formatting, boxing)", name, fn.Name())
		return
	}
	// Interface boxing at the call boundary.
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.(*types.Slice)
			if !ok {
				continue
			}
			if hasEllipsis(call) {
				continue // forwarding an existing slice, no per-element boxing
			}
			pt = sl.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !isInterfaceType(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || !boxesOnConversion(at) {
			continue
		}
		report(arg.Pos(), "%s: passing %s to interface parameter of %s boxes the value (allocates)", name, types.TypeString(at, types.RelativeTo(site.pkg.Types)), shortFuncName(fn))
	}
}

func hasEllipsis(call *ast.CallExpr) bool { return call.Ellipsis.IsValid() }

// checkConversion flags conversions that copy or box.
func checkConversion(report func(token.Pos, string, ...any), name string, call *ast.CallExpr, target, argT types.Type) {
	if isInterfaceType(target) {
		if boxesOnConversion(argT) {
			report(call.Pos(), "%s: conversion to interface type boxes the value (allocates)", name)
		}
		return
	}
	switch target.Underlying().(type) {
	case *types.Slice:
		// []byte(str), []rune(str), and slice->slice with differing
		// element types copy; identical slice types are free.
		if !types.Identical(target.Underlying(), argT.Underlying()) {
			report(call.Pos(), "%s: conversion to slice type copies (allocates)", name)
		}
	case *types.Basic:
		if bt, ok := target.Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 {
			if _, fromSlice := argT.Underlying().(*types.Slice); fromSlice {
				report(call.Pos(), "%s: string(bytes) conversion copies (allocates)", name)
			}
		}
	}
}

// usesPool reports whether body calls sync.Pool.Get — marking the function
// as a pool miss-constructor whose allocations the pool amortizes.
func usesPool(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if fn := staticCallee(info, call); fn != nil {
			if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "sync" && fn.Name() == "Get" {
				found = true
			}
		}
		return !found
	})
	return found
}

// isLocalSlice reports whether expr's root variable is declared inside the
// function body — i.e. a per-call slice whose growth cannot amortize.
// Fields, package variables, and parameters are persistent buffers.
func isLocalSlice(info *types.Info, decl *ast.FuncDecl, expr ast.Expr) bool {
	obj := rootObject(info, expr)
	if obj == nil {
		return false
	}
	if v, ok := obj.(*types.Var); !ok || v.IsField() {
		return false
	}
	return obj.Pos() >= decl.Body.Pos() && obj.Pos() <= decl.Body.End()
}

func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	bt, ok := tv.Type.Underlying().(*types.Basic)
	return ok && bt.Info()&types.IsString != 0 && tv.Value == nil
}

func isInterfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// boxesOnConversion reports whether converting a value of type t to an
// interface allocates: everything except pointer-shaped values (pointers,
// channels, maps, funcs, unsafe pointers), nil, and values already behind an
// interface.
func boxesOnConversion(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false // depends on the instantiation; checked there if concrete
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UntypedNil, types.UnsafePointer:
			return false
		}
		return true
	}
	return true
}

// writtenObjects collects every variable the function writes: assignment
// targets, ++/--, and address-taken variables. Used to decide whether a
// closure capture forces the variable to the heap.
func writtenObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	written := map[types.Object]bool{}
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				written[obj] = true
			}
			if obj := info.Defs[id]; obj != nil {
				written[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.RangeStmt:
			mark(n.Key)
			mark(n.Value)
		}
		return true
	})
	return written
}

// capturedWrites returns the variables lit captures from its enclosing
// function that the function (or the closure itself) writes — the captures
// the compiler implements by moving the variable to the heap.
func capturedWrites(info *types.Info, lit *ast.FuncLit, written map[types.Object]bool) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Captured: declared outside the closure. Parameters and receivers
		// of the enclosing function count (they live outside body but are
		// still heap-moved when written and captured).
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if !written[v] {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}
