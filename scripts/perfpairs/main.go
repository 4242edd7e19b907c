// Perfpairs summarizes alternating parent/change runs of perfbench, as
// scripts/perfpairs.sh collects them:
//
//	go run ./scripts/perfpairs BENCHMARK.json <results-dir>
//
// The results directory holds one parent-<i>.json / change-<i>.json per run
// (perfbench's last stdout line; empty when the run failed) and the run's
// stderr as parent-<i>.log / change-<i>.log. For every end-to-end metric
// BENCHMARK.json names, it prints each side's median [q1, q3], the
// change/parent ratio of the medians, the change's wins out of the pairs
// (ties count for neither side; the direction is the metric's "better")
// and a verdict against the metric's bound: WORSE when the change's median
// is worse than the parent's by more than the bound, unresolved when the
// parent's interquartile range is wider than the bound (unless every change
// run beats every parent run), within otherwise. It then prints each side's
// run, operation and failure counts and whether the deterministic
// per-operation work counts of the two sides agree.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the summary needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is perfbench's result line.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one tree's runs in pair order; ok[i] is false for a run that
// produced no result line.
type side struct {
	runs   []runResult
	ok     []bool
	counts map[string]bool // distinct work-count lines over all runs
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perfpairs BENCHMARK.json <results-dir>")
		os.Exit(2)
	}
	if err := run(os.Stdout, os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "perfpairs:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, specPath, dir string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := loadSide(dir, "parent")
	if err != nil {
		return err
	}
	change, err := loadSide(dir, "change")
	if err != nil {
		return err
	}
	if len(parent.runs) != len(change.runs) || len(parent.runs) == 0 {
		return fmt.Errorf("%s: %d parent and %d change runs, want equal non-zero counts", dir, len(parent.runs), len(change.runs))
	}
	summarize(w, spec, parent, change)
	return nil
}

// countsRE matches the deterministic work counts perfbench logs per
// operation and for its reference decode.
var countsRE = regexp.MustCompile(`counts (\{[^}]*\})`)

// loadSide reads <name>-1.json, <name>-2.json, ... until one is missing.
func loadSide(dir, name string) (side, error) {
	s := side{counts: map[string]bool{}}
	for i := 1; ; i++ {
		raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, i)))
		if os.IsNotExist(err) {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		var r runResult
		ok := json.Unmarshal(raw, &r) == nil && r.Metrics != nil
		s.runs = append(s.runs, r)
		s.ok = append(s.ok, ok)
		log, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-%d.log", name, i)))
		if err != nil && !os.IsNotExist(err) {
			return s, err
		}
		for _, m := range countsRE.FindAllSubmatch(log, -1) {
			s.counts[string(m[1])] = true
		}
	}
}

// values returns the metric's values over the runs that produced one.
func (s side) values(name string) []float64 {
	var xs []float64
	for i, r := range s.runs {
		if v, ok := r.Metrics[name]; s.ok[i] && ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func summarize(w io.Writer, spec benchSpec, parent, change side) {
	pairs := len(parent.runs)
	fmt.Fprintf(w, "%-22s %-7s %-6s  %-30s  %-30s  %-7s  %-9s  %s\n",
		"metric", "unit", "better", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "vs bound")
	for _, m := range spec.EndToEnd {
		pv, cv := parent.values(m.Name), change.values(m.Name)
		if len(pv) == 0 || len(cv) == 0 {
			fmt.Fprintf(w, "%-22s %-7s %-6s  no values\n", m.Name, m.Unit, m.Better)
			continue
		}
		pm, cm := quantile(pv, 0.5), quantile(cv, 0.5)
		ratio := "n/a"
		if pm != 0 {
			ratio = fmt.Sprintf("%.3f", cm/pm)
		}
		wins, ties := 0, 0
		for i := 0; i < pairs; i++ {
			if !parent.ok[i] || !change.ok[i] {
				continue
			}
			p, c := parent.runs[i].Metrics[m.Name].Value, change.runs[i].Metrics[m.Name].Value
			switch {
			case c == p:
				ties++
			case better(m.Better, c, p):
				wins++
			}
		}
		verdict := "within"
		switch {
		case worse(m, cm, pm):
			verdict = "WORSE"
		case quantile(pv, 0.75)-quantile(pv, 0.25) > m.Bound*math.Abs(pm) && !dominates(m.Better, cv, pv):
			// The parent's own runs spread wider than the bound, so the
			// medians cannot tell a change of that size from noise.
			verdict = "unresolved"
		}
		fmt.Fprintf(w, "%-22s %-7s %-6s  %-30s  %-30s  %-7s  %-9s  %s %g\n",
			m.Name, m.Unit, m.Better, spread(pv), spread(cv), ratio,
			fmt.Sprintf("%d/%d t=%d", wins, pairs, ties), verdict, m.Bound)
	}
	for _, s := range []struct {
		name string
		side side
	}{{"parent", parent}, {"change", change}} {
		ran, correct, attempted, failed := 0, 0, 0, 0
		for i, r := range s.side.runs {
			if !s.side.ok[i] {
				continue
			}
			ran++
			attempted += r.Attempted
			failed += r.Failed
			if r.Correct {
				correct++
			}
		}
		fmt.Fprintf(w, "%s: %d/%d runs reported, %d correct; operations: %d succeeded, %d failed\n",
			s.name, ran, pairs, correct, attempted-failed, failed)
	}
	same := "equal"
	if !sameKeys(parent.counts, change.counts) {
		same = "DIFFER"
	}
	fmt.Fprintf(w, "work counts: parent %s; change %s; %s\n", countSet(parent), countSet(change), same)
}

// better reports whether c beats p in the metric's direction.
func better(dir string, c, p float64) bool {
	if dir == "higher" {
		return c > p
	}
	return c < p
}

// dominates reports whether every change value beats every parent value.
func dominates(dir string, cv, pv []float64) bool {
	for _, c := range cv {
		for _, p := range pv {
			if !better(dir, c, p) {
				return false
			}
		}
	}
	return true
}

// worse reports whether the change median cm is worse than the parent
// median pm by more than the metric's relative bound.
func worse(m metricSpec, cm, pm float64) bool {
	if m.Better == "higher" {
		return cm < pm*(1-m.Bound)
	}
	return cm > pm*(1+m.Bound)
}

func spread(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics, perfbench's own definition.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func countSet(s side) string {
	keys := make([]string, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return "(none logged)"
	}
	return strings.Join(keys, " ")
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
