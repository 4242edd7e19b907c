// Package analysis is a stdlib-only static-analysis framework enforcing the
// toolkit's cross-cutting invariants: deterministic seeding, context
// propagation, goroutines started only by the executor and the binaries,
// error handling, and explicit seed flow. The paper's central claim — that
// every pipeline stage is swappable — only survives refactors if these
// invariants are machine checked rather than conventions; this package is
// the machine.
//
// The framework deliberately uses nothing outside the standard library
// (go/parser, go/ast, go/types, go/importer): the analyzer must build in the
// same environment as the toolkit itself, with no external tooling.
//
// Findings can be suppressed per line with a directive comment:
//
//	//dnalint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// The directive covers diagnostics on its own line and on the line directly
// below it, and the reason is mandatory: an unexplained suppression is itself
// reported. The `dnalint` command (cmd/dnalint) runs every analyzer over the
// whole module and exits non-zero on findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way compilers do: file:line:col: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info is the type information recorded while checking the package.
	Info *types.Info
	// Path is the package's import path. For golden-test packages this is a
	// synthetic path chosen to land inside an analyzer's scope.
	Path string

	analyzer string
	out      *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the identifier used in reports and allow directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Applies reports whether the analyzer inspects the package with the
	// given import path. Nil means every package in the module.
	Applies func(pkgPath string) bool
	// Run inspects one package and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// All returns every analyzer in the suite, in report order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		CtxFlow,
		ErrFlow,
		SeedFlow,
		GoSpawn,
		DurableWrite,
		ScratchOwn,
		HotPathAlloc,
	}
}

// ByName resolves a comma-less analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Options configures a RunAnalyzers/RunModule invocation.
type Options struct {
	// PruneDirectives reports allow directives that suppressed zero findings
	// as diagnostics themselves. Only directives naming an analyzer that ran
	// over the package are considered, so analyzer subsets (-only) never
	// produce false staleness.
	PruneDirectives bool
}

// RunAnalyzers applies the given analyzers to one loaded package and returns
// the surviving diagnostics: findings covered by a well-formed allow
// directive are dropped, and malformed directives are themselves reported.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, opts Options) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.Path) {
			continue
		}
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			analyzer: a.Name,
			out:      &diags,
		}
		a.Run(pass)
	}
	allow, dirDiags := collectDirectives(pkg.Fset, pkg.Files)
	diags = allow.filter(diags)
	diags = append(diags, dirDiags...)
	if opts.PruneDirectives {
		diags = append(diags, allow.stale(pkg.Fset, analyzers, pkg.Path)...)
	}
	sortDiagnostics(diags)
	return diags
}

// RunModule loads every package of the module rooted at root and applies the
// analyzers to each. Load and type-check failures abort with a *LoadError
// naming the failing package; clean analysis returns an empty slice.
func RunModule(root string, analyzers []*Analyzer, opts Options) ([]Diagnostic, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, &LoadError{Pkg: path, Err: err}
		}
		diags = append(diags, RunAnalyzers(pkg, analyzers, opts)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
