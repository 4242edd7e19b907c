package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRun writes one run's result line and log into dir.
func writeRun(t *testing.T, dir, name string, i int, line, log string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, i)), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.log", name, i)), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
}

func result(thr, cpu, lat float64, failed int) string {
	return fmt.Sprintf(`{"correct":%v,"attempted":4,"failed":%d,"metrics":{"throughput_mib_s":{"value":%g,"unit":"MiB/s"},"cpu_s_per_mib":{"value":%g,"unit":"s/MiB"},"volume_latency_p50_s":{"value":%g,"unit":"s"}}}`,
		failed == 0, failed, thr, cpu, lat)
}

// TestSummary pins the table's arithmetic: medians and quartiles, wins in
// each metric's direction with ties counted for neither side, the three
// bound verdicts, the run and operation counts and the work-count
// comparison.
func TestSummary(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"throughput_mib_s","unit":"MiB/s","better":"higher","bound":0.25},
		{"name":"cpu_s_per_mib","unit":"s/MiB","better":"lower","bound":0.1},
		{"name":"volume_latency_p50_s","unit":"s","better":"lower","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Throughput: the change wins pairs 1 and 3, ties pair 2, loses pair 4;
	// the parent's quartiles span 60% of its median, wider than the bound.
	// CPU: the change is 20% worse in every pair, beyond the 10% bound.
	// Latency: as widely spread, but every change run beats every parent run.
	parentThr := []float64{1, 2, 3, 4}
	changeThr := []float64{1.5, 2, 3.5, 3}
	for i := range parentThr {
		log := "op 0: wall 1s counts {Reads:10 Clusters:2}\n"
		writeRun(t, dir, "parent", i+1, result(parentThr[i], 10, parentThr[i], 0), log)
		writeRun(t, dir, "change", i+1, result(changeThr[i], 12, 0.5, 0), log)
	}
	var out strings.Builder
	if err := run(&out, spec, dir); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(strings.Fields(out.String()), " ") // columns are padded
	for _, want := range []string{
		"2.5 [1.75, 3.25] 2.5 [1.875, 3.125] 1.000 2/4 t=1 unresolved 0.25",
		"10 [10, 10] 12 [12, 12] 1.200 0/4 t=0 WORSE 0.1",
		"2.5 [1.75, 3.25] 0.5 [0.5, 0.5] 0.200 4/4 t=0 within 0.25",
		"parent: 4/4 runs reported, 4 correct; operations: 16 succeeded, 0 failed",
		"{Reads:10 Clusters:2}; equal",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}

	// A failed operation, a run without a result line and a diverging work
	// count all show.
	writeRun(t, dir, "change", 2, result(2, 12, 0.5, 1), "op 0: counts {Reads:10 Clusters:3}\n")
	writeRun(t, dir, "change", 3, "", "")
	out.Reset()
	if err := run(&out, spec, dir); err != nil {
		t.Fatal(err)
	}
	got = strings.Join(strings.Fields(out.String()), " ")
	for _, want := range []string{
		"change: 3/4 runs reported, 2 correct; operations: 11 succeeded, 1 failed",
		"; DIFFER",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}
}

func TestUnequalPairs(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	writeRun(t, dir, "parent", 1, result(1, 1, 1, 0), "")
	if err := run(&strings.Builder{}, spec, dir); err == nil {
		t.Fatal("one parent run and no change run summarized without error")
	}
}
