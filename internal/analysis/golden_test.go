package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts the expectation regex from a `// want "..."` marker. The
// marker may trail ordinary code or live inside another comment (used to
// test the directive parser's own diagnostics).
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// collectWants returns the expectation regex for every marked line of every
// Go file in dir, keyed by file base name and line number.
func collectWants(t *testing.T, dir string) map[string]map[int]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]map[int]string{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				if wants[e.Name()] == nil {
					wants[e.Name()] = map[int]string{}
				}
				wants[e.Name()][line] = m[1]
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// TestGolden loads each testdata package under a synthetic import path that
// places it in the analyzer's scope, runs the analyzer under test, and
// matches the diagnostics against the `// want` markers: every marker must
// be hit by a matching diagnostic and every diagnostic must be expected.
// Every analyzer in All() must have a case, so none loses its golden data
// unnoticed.
func TestGolden(t *testing.T) {
	cases := []struct {
		dir      string
		asPath   string
		analyzer string
		prune    bool
	}{
		{"determinism", "dnastore/internal/sim", "determinism", false},
		{"ctxflow", "dnastore/lint/ctxflow", "ctxflow", false},
		{"errflow", "dnastore/lint/errflow", "errflow", false},
		{"seedflow", "dnastore/internal/seedflow", "seedflow", false},
		// gospawn: a library package, then a main package (a spawn home).
		{"gospawn", "dnastore/lint/gospawn", "gospawn", false},
		{"gospawnmain", "dnastore/lint/gospawnmain", "gospawn", false},
		{"durablewrite", "dnastore/lint/durablewrite", "durablewrite", false},
		{"scratchown", "dnastore/lint/scratchown", "scratchown", false},
		{"hotpathalloc", "dnastore/lint/hotpathalloc", "hotpathalloc", false},
		// The directive packages test the suppression machinery itself;
		// errflow provides the findings the directives act on.
		{"directive", "dnastore/lint/directive", "errflow", false},
		{"staledirective", "dnastore/lint/staledirective", "errflow", true},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.analyzer] = true
	}
	for _, a := range All() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no golden case", a.Name)
		}
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg, err := loader.LoadDir(dir, tc.asPath)
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			a := ByName(tc.analyzer)
			if a == nil {
				t.Fatalf("unknown analyzer %q", tc.analyzer)
			}
			diags := RunAnalyzers(pkg, []*Analyzer{a}, Options{PruneDirectives: tc.prune})
			if len(diags) == 0 {
				t.Fatalf("golden package %s produced no findings; the analyzer must report and exit non-zero on it", tc.dir)
			}

			wants := collectWants(t, dir)
			matched := map[string]bool{}
			for _, d := range diags {
				base := filepath.Base(d.Pos.Filename)
				pattern, ok := wants[base][d.Pos.Line]
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", base, d.Pos.Line, pattern, err)
				}
				if !re.MatchString(d.Message) {
					t.Errorf("%s:%d: diagnostic %q does not match want %q", base, d.Pos.Line, d.Message, pattern)
					continue
				}
				matched[fmt.Sprintf("%s:%d", base, d.Pos.Line)] = true
			}
			for base, lines := range wants {
				for line := range lines {
					if !matched[fmt.Sprintf("%s:%d", base, line)] {
						t.Errorf("%s:%d: want %q never reported", base, line, lines[line])
					}
				}
			}
		})
	}
}
