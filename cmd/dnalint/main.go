// Command dnalint runs the toolkit's invariant analyzers (see
// internal/analysis) over the whole module and exits non-zero on findings.
//
// Usage:
//
//	go run ./cmd/dnalint ./...          # analyze every package
//	go run ./cmd/dnalint -list          # list analyzers
//	go run ./cmd/dnalint -only ctxflow,errflow ./...
//	go run ./cmd/dnalint -json ./...    # machine-readable findings on stdout
//
// Exit codes: 0 clean, 1 findings, 2 load/type-check failure (the failing
// package is named on stderr before the error). Findings are reported as
// file:line:col: analyzer: message — or, with -json, as a JSON array of
// {file, line, col, analyzer, message} objects — and can be suppressed per
// line with
//
//	//dnalint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// Stale-directive pruning is on by default (-prune-check=false disables
// it): an allow that suppresses nothing is itself a finding.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dnastore/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the -json wire shape of one finding. File paths are
// module-relative where possible, matching the text output.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dnalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	chdir := fs.String("C", "", "analyze the module containing this directory (default: current directory)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	prune := fs.Bool("prune-check", true, "report allow directives that suppress zero findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.All()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "dnalint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	// Package patterns are accepted for familiarity but the analyzer always
	// covers the whole module: invariants are cross-cutting by nature.
	for _, arg := range fs.Args() {
		if arg != "./..." && arg != "all" {
			fmt.Fprintf(stderr, "dnalint: only the ./... pattern is supported (got %q); analyzing the whole module\n", arg)
		}
	}

	dir := *chdir
	if dir == "" {
		var err error
		dir, err = os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "dnalint:", err)
			return 2
		}
	}
	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "dnalint:", err)
		return 2
	}

	diags, err := analysis.RunModule(root, analyzers, analysis.Options{PruneDirectives: *prune})
	if err != nil {
		// Name the failing package on its own line first: CI log scrapers and
		// humans both want the culprit before the compiler-style error text.
		var lerr *analysis.LoadError
		if errors.As(err, &lerr) {
			fmt.Fprintf(stderr, "dnalint: failed package: %s\n", lerr.Pkg)
			fmt.Fprintln(stderr, "dnalint:", lerr.Err)
		} else {
			fmt.Fprintln(stderr, "dnalint:", err)
		}
		return 2
	}
	for i := range diags {
		if r, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			diags[i].Pos.Filename = r
		}
	}
	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "dnalint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dnalint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
