package analysis

import (
	"go/ast"
	"go/types"
)

// spawnHome is the one library package that may start goroutines: the
// executor every pool, pump and group runs on. Its ParallelFor items and
// Group members run under a recover, so a panic stays inside its work item
// and no schedule reaches the output.
const spawnHome = "dnastore/internal/exec"

// GoSpawn checks where goroutines start instead of inferring their
// lifecycles. A `go` statement is a finding in every package except
// internal/exec and the main packages (cmd/*, examples/*, scripts/perfpairs,
// perfbench), which own their process. Where a `go` may appear, it must
// start a function literal that the spawn site joins: the body (nested
// closures included) calls a sync.WaitGroup, exec.Group or exec.Tickets
// method, or closes or sends on a channel declared outside the literal. A
// channel made inside the literal does not count; the spawner cannot see
// it. A named function (`go f(x)`) is a finding everywhere, and so is a
// literal that only references a context: a context can stop a goroutine,
// but nothing waits for it to stop.
var GoSpawn = &Analyzer{
	Name: "gospawn",
	Doc:  "go statements only in internal/exec and main packages, each starting a literal its spawn site joins",
	Run:  runGoSpawn,
}

func runGoSpawn(pass *Pass) {
	home := pass.Path == spawnHome || pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			switch {
			case !home:
				pass.Reportf(g.Pos(), "go statement outside internal/exec: run the work on exec.ParallelFor or exec.Group, which contain its panics and join it")
			case !isLit:
				pass.Reportf(g.Pos(), "go statement starts a named function: start a function literal whose body the spawn site joins")
			case !spawnJoined(pass.Info, lit):
				pass.Reportf(g.Pos(), "goroutine is not joined: its body must call a sync.WaitGroup, exec.Group or exec.Tickets method, or close or send on a channel declared outside it")
			}
			return true
		})
	}
}

// spawnJoined reports whether the literal's body carries a completion the
// spawn site can observe: a join-type method call, or a close of or send on
// a channel captured from outside the literal. Nested closures count —
// `defer func() { close(done) }()` is how bodies usually signal completion.
func spawnJoined(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			id, _ := ast.Unparen(x.Fun).(*ast.Ident)
			_, builtin := info.Uses[id].(*types.Builtin)
			found = isJoinCall(info, x) ||
				builtin && id.Name == "close" && len(x.Args) == 1 && rootsOutside(info, x.Args[0], lit)
		case *ast.SendStmt:
			found = rootsOutside(info, x.Chan, lit)
		}
		return !found
	})
	return found
}

// isJoinCall reports whether call invokes a method of sync.WaitGroup,
// exec.Group or exec.Tickets (value or pointer receiver).
func isJoinCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch name := named.Obj().Name(); named.Obj().Pkg().Path() {
	case "sync":
		return name == "WaitGroup"
	case spawnHome:
		return name == "Group" || name == "Tickets"
	}
	return false
}

// rootsOutside reports whether expr's leftmost identifier resolves to an
// object declared outside the literal — state the spawn site shares, not a
// value private to the goroutine.
func rootsOutside(info *types.Info, expr ast.Expr, lit *ast.FuncLit) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	obj := info.Uses[id]
	return obj != nil && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End())
}
