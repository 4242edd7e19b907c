package analysis

import (
	"go/ast"
	"go/types"
)

// ScratchOwn enforces the per-worker scratch ownership discipline behind the
// zero-allocation kernels: scratch buffers (edit.Scratch, align.Graph, the
// clustering round and sweep state, ...) are reused across calls without
// synchronization, which is only sound while each value stays confined to
// the worker that owns it. The sanctioned pattern is a slice with one slot
// per worker, indexed by worker id — the slice is shared, the slots are not.
//
// The analyzer forbids the escapes that break confinement:
//
//   - a package-level variable whose type involves a scratch type (global
//     scratch is shared scratch);
//   - sending a scratch value (or pointer to one) over a channel, or making
//     a channel of scratch values — channels transfer ownership to an
//     unknown goroutine;
//   - a `go` closure capturing a scratch variable (or pointer to one)
//     declared outside the closure — two goroutines would share one buffer.
//     Capturing a *slice* of scratch (or a bank wrapping one) is allowed:
//     that is the per-worker slot pattern, where the goroutine indexes its
//     own slot by worker id;
//   - assigning a scratch value into a package-level variable.
//
// The built-in scratch types are the module's known kernels; additional
// types opt in by carrying a `//dnalint:scratch` marker on their
// declaration.
var ScratchOwn = &Analyzer{
	Name: "scratchown",
	Doc:  "per-worker scratch values must not escape their owning goroutine",
	Run:  runScratchOwn,
}

// builtinScratchTypes qualifies the module's known per-worker scratch types
// as "pkgpath.TypeName".
var builtinScratchTypes = map[string]bool{
	"dnastore/internal/edit.Scratch": true,
	"dnastore/internal/align.Graph":  true,
}

// scratchSet resolves which named types count as scratch for one package:
// the module-wide builtins plus local types marked //dnalint:scratch.
type scratchSet struct {
	local map[types.Object]bool
}

func collectScratchSet(pass *Pass) *scratchSet {
	set := &scratchSet{local: map[types.Object]bool{}}
	for _, f := range pass.Files {
		lines := markerLines(pass.Fset, f, "scratch")
		if len(lines) == 0 {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if declMarked(pass.Fset, lines, gd.Pos()) || declMarked(pass.Fset, lines, ts.Pos()) {
					if obj := pass.Info.Defs[ts.Name]; obj != nil {
						set.local[obj] = true
					}
				}
			}
		}
	}
	return set
}

// isScratchNamed reports whether t (after stripping one pointer level) is a
// scratch named type.
func (s *scratchSet) isScratchNamed(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil {
		return false
	}
	if s.local[obj] {
		return true
	}
	if obj.Pkg() == nil {
		return false
	}
	return builtinScratchTypes[obj.Pkg().Path()+"."+obj.Name()]
}

// involvesScratch reports whether t contains a scratch type anywhere in its
// structure: behind pointers, slices, arrays, maps, channels, struct fields,
// or generic type arguments. The last two are what let the analyzer see
// through worker-state idioms — a struct bundling per-worker state with its
// scratch, and a generic bank instantiated with a scratch type — so sharing
// one of those globally or over a channel is flagged just like sharing the
// scratch value directly.
func (s *scratchSet) involvesScratch(t types.Type) bool {
	seen := map[types.Type]bool{}
	var walk func(t types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		if s.isScratchNamed(t) {
			return true
		}
		if named, ok := t.(*types.Named); ok {
			if args := named.TypeArgs(); args != nil {
				for i := 0; i < args.Len(); i++ {
					if walk(args.At(i)) {
						return true
					}
				}
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			return walk(u.Elem())
		case *types.Slice:
			return walk(u.Elem())
		case *types.Array:
			return walk(u.Elem())
		case *types.Map:
			return walk(u.Key()) || walk(u.Elem())
		case *types.Chan:
			return walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if walk(u.Field(i).Type()) {
					return true
				}
			}
		}
		if ptr, ok := t.(*types.Pointer); ok {
			return walk(ptr.Elem())
		}
		return false
	}
	return walk(t)
}

func runScratchOwn(pass *Pass) {
	set := collectScratchSet(pass)
	for _, f := range pass.Files {
		// Rule 1: package-level vars involving scratch types.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := pass.Info.Defs[name]
					if v, ok := obj.(*types.Var); ok && set.involvesScratch(v.Type()) {
						pass.Reportf(name.Pos(), "package-level var %s holds per-worker scratch type %s: global scratch is shared scratch; keep it inside the worker that owns it", name.Name, v.Type())
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SendStmt:
				// Rule 2a: sending a scratch value hands the buffer to an
				// unknown goroutine.
				if tv, ok := pass.Info.Types[x.Value]; ok && set.involvesScratch(tv.Type) {
					pass.Reportf(x.Pos(), "per-worker scratch value of type %s sent over a channel: channel transfer breaks single-owner confinement", tv.Type)
				}
			case *ast.CallExpr:
				// Rule 2b: making a channel of scratch values.
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "make" && len(x.Args) >= 1 {
					if tv, ok := pass.Info.Types[ast.Unparen(x.Fun)]; ok && tv.IsBuiltin() {
						if ct, ok := pass.Info.Types[x.Args[0]]; ok && ct.Type != nil {
							if ch, ok := ct.Type.Underlying().(*types.Chan); ok && set.involvesScratch(ch.Elem()) {
								pass.Reportf(x.Pos(), "channel of per-worker scratch type %s: scratch buffers must not travel between goroutines", ch.Elem())
							}
						}
					}
				}
			case *ast.GoStmt:
				// Rule 3: a spawned closure capturing a scratch variable from
				// the outer scope. Slices of scratch are the sanctioned
				// per-worker slot pattern and stay legal.
				lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit)
				if !ok {
					return true
				}
				checkGoCapture(pass, set, lit)
			case *ast.AssignStmt:
				// Rule 4: storing a scratch value into a package-level var.
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) {
						break
					}
					id := rootIdent(lhs)
					if id == nil {
						continue
					}
					obj, ok := pass.Info.Uses[id].(*types.Var)
					if !ok || obj.Parent() != pass.Pkg.Scope() {
						continue
					}
					if tv, ok := pass.Info.Types[x.Rhs[i]]; ok && set.involvesScratch(tv.Type) {
						pass.Reportf(x.Pos(), "per-worker scratch value of type %s stored in package-level var %s: global scratch is shared scratch", tv.Type, id.Name)
					}
				}
			}
			return true
		})
	}
}

// checkGoCapture reports outer scratch variables (or pointers to scratch)
// referenced inside a spawned closure.
func checkGoCapture(pass *Pass, set *scratchSet, lit *ast.FuncLit) {
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || reported[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the closure: private to the goroutine
		}
		if !set.isScratchNamed(obj.Type()) {
			return true
		}
		reported[obj] = true
		pass.Reportf(id.Pos(), "goroutine closure captures per-worker scratch variable %s (type %s): two goroutines would share one buffer; give each worker its own slot", id.Name, obj.Type())
		return true
	})
}
