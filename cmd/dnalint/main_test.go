package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module under a temp dir and returns its
// root. files maps module-relative paths to contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	all := map[string]string{"go.mod": "module lintprobe\n\ngo 1.22\n"}
	for k, v := range files {
		all[k] = v
	}
	for rel, content := range all {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestExitTwoNamesFailingPackage pins the load-failure contract: a module
// that does not type-check exits 2 and stderr names the failing package on
// its own line before the compiler-style error text.
func TestExitTwoNamesFailingPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
		"broken/broken.go": "package broken\n\nvar x int = \"not an int\"\n",
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "./..."}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	pkgLine := "dnalint: failed package: lintprobe/broken"
	i := strings.Index(out, pkgLine)
	if i < 0 {
		t.Fatalf("stderr does not name the failing package (%q):\n%s", pkgLine, out)
	}
	if j := strings.Index(out, "not an int"); j >= 0 && j < i {
		t.Fatalf("error text precedes the failing-package line:\n%s", out)
	}
}

// TestJSONFindings checks the -json wire shape: findings come out as a JSON
// array of {file, line, col, analyzer, message} objects and the exit code
// still signals them.
func TestJSONFindings(t *testing.T) {
	root := writeModule(t, map[string]string{
		// A goroutine started outside internal/exec — gospawn flags it.
		"leak/leak.go": "package leak\n\nfunc work() {}\n\nfunc Spawn() {\n\tgo func() {\n\t\twork()\n\t}()\n}\n",
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %s", len(diags), stdout.String())
	}
	d := diags[0]
	if d.Analyzer != "gospawn" {
		t.Errorf("analyzer = %q, want gospawn", d.Analyzer)
	}
	if d.File != filepath.Join("leak", "leak.go") {
		t.Errorf("file = %q, want module-relative leak/leak.go", d.File)
	}
	if d.Line != 6 || d.Col != 2 {
		t.Errorf("position = %d:%d, want 6:2", d.Line, d.Col)
	}
	if !strings.Contains(d.Message, "go statement outside internal/exec") {
		t.Errorf("unexpected message %q", d.Message)
	}
}

// TestCleanModuleExitsZero covers the happy path, including the default
// stale-directive pruning: a used allow survives, the run is clean.
func TestCleanModuleExitsZero(t *testing.T) {
	root := writeModule(t, map[string]string{
		"ok/ok.go": "package ok\n\nfunc Spawn() {\n\tgo func() { //dnalint:allow gospawn -- test fixture: fire-and-forget by design\n\t}()\n}\n",
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestPruneCheckFlagsStaleAllow pins the -prune-check default: an allow that
// suppresses nothing is itself a finding, and -prune-check=false silences
// the check.
func TestPruneCheckFlagsStaleAllow(t *testing.T) {
	files := map[string]string{
		"ok/ok.go": "package ok\n\n//dnalint:allow gospawn -- nothing here spawns anything\nfunc Nothing() {}\n",
	}
	root := writeModule(t, files)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", root, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stale allow); stdout:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "stale directive") {
		t.Fatalf("expected a stale-directive finding, got:\n%s", stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", root, "-prune-check=false", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code with -prune-check=false = %d, want 0; stdout:\n%s", code, stdout.String())
	}
}
