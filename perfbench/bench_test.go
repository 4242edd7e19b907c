package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dnastore/internal/archive"
)

// quickSize runs every workload through the full-size code paths in
// seconds: 8 volumes of 64 KiB, and a 12 KB file.
var quickSize = sizes{
	archiveBytes:  512 << 10,
	restoreBytes:  512 << 10,
	volumeBytes:   64 << 10,
	warmBytes:     128 << 10,
	fileBytes:     12_000,
	warmFileBytes: 3_600,
}

// spec is the part of BENCHMARK.json this test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricEmittedWithUnit runs each workload of BENCHMARK.json at
// quick size, untraced and traced, and checks that the run passes and
// prints exactly the metrics BENCHMARK.json names, each with its unit and
// a finite value.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, wl := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res, err := run(context.Background(), options{
				workload: wl.Name, seed: 3, seconds: time.Nanosecond, trace: traced,
				workdir: t.TempDir(), sizes: quickSize, log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", wl.Name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// corrupting flips one byte at a fixed output offset on its way to w.
type corrupting struct {
	w   io.Writer
	at  int64
	off int64
}

func (c *corrupting) Write(b []byte) (int, error) {
	if c.at >= c.off && c.at < c.off+int64(len(b)) {
		b = append([]byte(nil), b...)
		b[c.at-c.off] ^= 0x40
	}
	c.off += int64(len(b))
	return c.w.Write(b)
}

// TestCorruptedRoundTripFails corrupts one byte of a streamed round trip's
// output: the volume holding it must fail, not pass silently.
func TestCorruptedRoundTripFails(t *testing.T) {
	ctx := context.Background()
	w := &streamRoundtrip{seed: 4, sz: quickSize}
	if err := w.setup(ctx, nil); err != nil {
		t.Fatal(err)
	}
	opts := streamOptions(quickSize)
	trip := newTrip(w.data, opts.VolumeBytes, nil)
	trip.wr.w = &corrupting{w: trip.chk, at: 3*int64(opts.VolumeBytes) + 17}
	_, failed, problems := trip.run(ctx, w.pipe, opts)
	if !reflect.DeepEqual(failed, map[int64]bool{3: true}) || len(problems) == 0 {
		t.Fatalf("failed volumes %v, problems %q; want volume 3 failed", failed, problems)
	}
}

// TestCheckerCatchesShortAndLongOutput: missing and surplus bytes fail.
func TestCheckerCatchesShortAndLongOutput(t *testing.T) {
	p := payload{seed: 8, size: 200_000}
	full := p.bytes()
	short := newChecker(p, 64<<10)
	if _, err := short.Write(full[:150_000]); err != nil {
		t.Fatal(err)
	}
	if got := short.failedSet(); !reflect.DeepEqual(got, map[int64]bool{2: true, 3: true}) {
		t.Errorf("short output: failed %v, want volumes 2 and 3", got)
	}
	long := newChecker(p, 64<<10)
	if _, err := long.Write(append(full, 0)); err != nil {
		t.Fatal(err)
	}
	if got := long.failedSet(); !reflect.DeepEqual(got, map[int64]bool{3: true}) {
		t.Errorf("surplus output: failed %v, want the last volume", got)
	}
	exact := newChecker(p, 64<<10)
	if _, err := exact.Write(full); err != nil {
		t.Fatal(err)
	}
	if got := exact.failedSet(); len(got) != 0 {
		t.Errorf("exact output: failed %v", got)
	}
}

// TestCorruptedRestoreFails restores an archive, then damages one byte of
// the output file: both the benchmark's check and the audit must fail it.
func TestCorruptedRestoreFails(t *testing.T) {
	ctx := context.Background()
	w := &archiveRestore{seed: 5, sz: quickSize, root: t.TempDir()}
	if err := w.setup(ctx, nil); err != nil {
		t.Fatal(err)
	}
	r, err := w.op(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || len(r.problems) != 0 {
		t.Fatalf("clean restore: failed %d, problems %q", r.failed, r.problems)
	}
	f, err := os.OpenFile(w.out(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := int64(5*quickSize.volumeBytes + 99)
	b := []byte{w.data.at(at) ^ 0x01}
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bad, err := checkFile(w.out(), w.data, quickSize.volumeBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bad, map[int64]bool{5: true}) {
		t.Errorf("check of damaged output: failed %v, want volume 5", bad)
	}
	audit, err := archive.Audit(w.dir(), w.out())
	if err != nil {
		t.Fatal(err)
	}
	if audit.Ok() || audit.Mismatched != 1 {
		t.Errorf("audit of damaged output: ok=%v mismatched=%d", audit.Ok(), audit.Mismatched)
	}
}
