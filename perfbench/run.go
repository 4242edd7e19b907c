package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every metric the benchmark prints, with its
// unit. BENCHMARK.json lists the same names.
var endToEnd = map[string]string{
	"throughput_mib_s":     "MiB/s",
	"cpu_s_per_mib":        "s/MiB",
	"volume_latency_p50_s": "s",
	"volume_latency_p90_s": "s",
	"peak_heap_mib":        "MiB",
	"setup_s":              "s",
	"ecc_load":             "ratio",
	"success_ratio":        "ratio",
}

var perLayer = map[string]string{
	"sim.busy_s":                  "s",
	"sim.reads_per_strand":        "reads/strand",
	"codec.encode.busy_s":         "s",
	"codec.decode.busy_s":         "s",
	"codec.corrected_symbols":     "count",
	"codec.erased_symbols":        "count",
	"codec.failed_codewords":      "count",
	"core.demux.busy_share":       "ratio",
	"core.demux.spill_ratio":      "ratio",
	"core.intake_wait_share":      "ratio",
	"core.overlap":                "ratio",
	"core.self_s":                 "s",
	"cluster.busy_s":              "s",
	"cluster.edit_calls_per_read": "calls/read",
	"cluster.cheap_merge_ratio":   "ratio",
	"cluster.accuracy":            "ratio",
	"cluster.clusters_per_strand": "clusters/strand",
	"recon.busy_s":                "s",
	"recon.cluster_p50_us":        "us",
	"recon.cluster_p99_us":        "us",
	"recon.perfect_ratio":         "ratio",
	"archive.checkpoint_share":    "ratio",
	"archive.skip_ratio":          "ratio",
	"archive.abandoned_volumes":   "count",
	"trace.overhead_mib_s":        "MiB/s",
}

// setupRepeats is how many times a timed run sets its workload up; setup_s
// is the median.
const setupRepeats = 3

// options are one benchmark run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string
	sizes    sizes
	log      io.Writer
}

// run executes one benchmark run: a timed run of the end-to-end metrics,
// or a traced comparison for the per-layer metrics.
func run(ctx context.Context, o options) (res result, err error) {
	w, err := newWorkload(o.workload, o.seed, o.workdir, o.sizes)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			err = fmt.Errorf("clean up: %w", cerr)
		}
	}()
	if o.trace {
		return runTraced(ctx, w, o)
	}
	return runTimed(ctx, w, o)
}

// verdict accumulates operations and failed checks into the result header.
type verdict struct {
	attempted, failed int
	problems          []string
}

func (v *verdict) op(r opResult) {
	v.attempted += r.attempted
	v.failed += r.failed
	v.problems = append(v.problems, r.problems...)
}

// gate fails an operation whose deterministic counts differ from the
// first operation's: the same input must always take the same work.
func (v *verdict) gate(first, r opResult, what string) {
	if r.counts != first.counts {
		v.failed += r.attempted - r.failed
		v.problems = append(v.problems, fmt.Sprintf("%s: counts %+v differ from %+v", what, r.counts, first.counts))
	}
}

func (v *verdict) result(metrics map[string]metric, log io.Writer) result {
	for _, p := range v.problems {
		fmt.Fprintln(log, "FAILED CHECK:", p)
	}
	return result{
		Correct:   v.failed == 0 && len(v.problems) == 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   metrics,
	}
}

func logOp(log io.Writer, label string, r opResult) {
	fmt.Fprintf(log, "%s: wall %.3fs cpu %.3fs heap %.1fMiB ecc_load %.5f failed %d/%d counts %+v\n",
		label, r.wall.Seconds(), r.cpu.Seconds(), float64(r.peakHeap)/(1<<20), r.ecc.load(), r.failed, r.attempted, r.counts)
}

// fits reports whether one more of n rounds begun at start, taking their
// average time, still ends within the run's duration.
func fits(start time.Time, n int, d time.Duration) bool {
	el := time.Since(start)
	return el+el/time.Duration(n) <= d
}

// runTimed sets the workload up several times, then repeats the timed
// operation for the run's duration and reports the end-to-end metrics.
func runTimed(ctx context.Context, w workload, o options) (result, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := w.setup(ctx, nil); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(o.log, "setup %d: %.3fs\n", i, setups[i])
	}

	var v verdict
	var ops []opResult
	for start := time.Now(); len(ops) == 0 || fits(start, len(ops), o.seconds); {
		r, err := w.op(ctx, nil)
		if err != nil {
			return result{}, err
		}
		logOp(o.log, fmt.Sprintf("op %d", len(ops)), r)
		v.op(r)
		if len(ops) > 0 {
			v.gate(ops[0], r, fmt.Sprintf("op %d", len(ops)))
		}
		ops = append(ops, r)
	}
	e := ops[0].ecc
	if ref, ok := w.(referencer); ok {
		rr, err := ref.reference(ctx)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(o.log, "reference decode: ecc_load %.5f counts %+v\n", rr.ecc.load(), rr.counts)
		e = rr.ecc
		v.problems = append(v.problems, rr.problems...)
	}
	if wd, ok := w.(eccWidener); ok {
		x, problems, err := wd.widenECC(ctx)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(o.log, "second file: ecc_load %.5f\n", x.load())
		e = e.plus(x)
		v.problems = append(v.problems, problems...)
	}

	return v.result(withUnits(endToEndMetrics(ops, setups, e, v, o.log), endToEnd), o.log), nil
}

// endToEndMetrics reduces a timed run's operations to the end-to-end
// metrics. Each is a median over the operations; latency quantiles are
// taken within each operation first, so one operation that a contended
// host slowed cannot own the tail.
func endToEndMetrics(ops []opResult, setups []float64, e ecc, v verdict, log io.Writer) map[string]float64 {
	var thr, cpu, heap, p50, p90 []float64
	samples := 0
	for _, r := range ops {
		mib := float64(r.bytes) / (1 << 20)
		ok := ratio(float64(r.attempted-r.failed), float64(r.attempted))
		thr = append(thr, mib*ok/r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds()/mib)
		heap = append(heap, float64(r.peakHeap)/(1<<20))
		lat := make([]float64, len(r.latency))
		for i, d := range r.latency {
			lat[i] = d.Seconds()
		}
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		samples += len(lat)
	}
	fmt.Fprintf(log, "%d operations, %d latency samples\n", len(ops), samples)
	return map[string]float64{
		"throughput_mib_s":     median(thr),
		"cpu_s_per_mib":        median(cpu),
		"volume_latency_p50_s": median(p50),
		"volume_latency_p90_s": median(p90),
		"peak_heap_mib":        median(heap),
		"setup_s":              median(setups),
		"ecc_load":             e.load(),
		"success_ratio":        ratio(float64(v.attempted-v.failed), float64(v.attempted)),
	}
}

// runTraced sets the workload up once (tracing the archive build), then
// runs untraced and traced operations in pairs for the run's duration. The
// traced operation must match its untraced twin exactly; the per-layer
// metrics come from the last traced operation.
func runTraced(ctx context.Context, w workload, o options) (result, error) {
	gt := newTruth()
	setupTr := newTracer(gt)
	if err := w.setup(ctx, setupTr); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}

	var v verdict
	var first, last opResult
	var lastTr *tracer
	var plain, traced []float64
	for start := time.Now(); len(traced) == 0 || fits(start, len(traced), o.seconds); {
		u, err := w.op(ctx, nil)
		if err != nil {
			return result{}, err
		}
		tr := newTracer(gt)
		t, err := w.op(ctx, tr)
		if err != nil {
			return result{}, err
		}
		n := len(traced)
		logOp(o.log, fmt.Sprintf("pair %d untraced", n), u)
		logOp(o.log, fmt.Sprintf("pair %d traced", n), t)
		if n == 0 {
			first = u
		}
		v.op(u)
		v.op(t)
		v.gate(first, u, fmt.Sprintf("pair %d untraced", n))
		v.gate(first, t, fmt.Sprintf("pair %d traced", n))
		if wall, stages, _ := tr.rootTimes(); stages > time.Duration(t.pumps)*wall {
			v.problems = append(v.problems, fmt.Sprintf("pair %d: stage spans sum to %v, above %d pumps × %v wall", n, stages, t.pumps, wall))
		}
		plain = append(plain, float64(u.bytes)/(1<<20)/u.wall.Seconds())
		traced = append(traced, float64(t.bytes)/(1<<20)/t.wall.Seconds())
		last, lastTr = t, tr
	}

	e := last.ecc
	tc := lastTr.clustered()
	clusterCounts := counts{Clusters: tc.clusters, EditCalls: tc.editCalls, Merges: tc.merges, CheapMerges: tc.cheapMerges}
	want := last.counts
	if ref, ok := w.(referencer); ok {
		rr, err := ref.reference(ctx)
		if err != nil {
			return result{}, err
		}
		e, want = rr.ecc, rr.counts
		v.problems = append(v.problems, rr.problems...)
	}
	// The clustering the decorators saw must be the clustering the program
	// reported (for archive-restore: the reference decode's).
	if got := (counts{Clusters: want.Clusters, EditCalls: want.EditCalls, Merges: want.Merges, CheapMerges: want.CheapMerges}); got != clusterCounts {
		v.problems = append(v.problems, fmt.Sprintf("traced clustering %+v differs from the reported %+v", clusterCounts, got))
	}
	v.problems = append(v.problems, setupTr.problems...)
	v.problems = append(v.problems, lastTr.problems...)

	m := layerMetrics(setupTr, lastTr, gt, e)
	m["trace.overhead_mib_s"] = median(plain) - median(traced)
	fmt.Fprintf(o.log, "throughput untraced %.3f MiB/s, traced %.3f MiB/s\n", median(plain), median(traced))
	if err := writeSpans(o, setupTr, lastTr); err != nil {
		return result{}, err
	}
	return v.result(withUnits(m, perLayer), o.log), nil
}

// layerMetrics derives the per-layer metrics from the traced set-up (the
// archive build, if any) and the last traced operation.
func layerMetrics(setupTr, opTr *tracer, gt *truth, e ecc) map[string]float64 {
	tracers := []*tracer{setupTr, opTr}
	busy := func(layer string) float64 {
		var d time.Duration
		for _, t := range tracers {
			d += t.busy(layer)
		}
		return d.Seconds()
	}
	var w work
	var c clustering
	var spills, demuxed int64
	for _, t := range tracers {
		w.add(t.work)
		c.add(t.clustered())
		for _, s := range t.reg.Snapshot() {
			if s.Stage == "demux" {
				spills += s.Spills
				demuxed += s.ItemsIn
			}
		}
	}
	// share is the part of its traced phase's wall time a layer took, over
	// the phases where it ran: the archive build for archive-restore's
	// intake and demux, the operation otherwise; 0 where it never ran.
	share := func(layerTime func(*tracer) time.Duration) float64 {
		var x, wall time.Duration
		for _, t := range tracers {
			if d := layerTime(t); d > 0 {
				w, _, _ := t.rootTimes()
				x, wall = x+d, wall+w
			}
		}
		return ratio(x.Seconds(), wall.Seconds())
	}
	wall, stages, self := opTr.rootTimes()
	perCluster := opTr.durations("recon.cluster")
	return map[string]float64{
		"sim.busy_s":                  busy("sim"),
		"sim.reads_per_strand":        ratio(float64(w.reads), float64(w.strands)),
		"codec.encode.busy_s":         busy("encode"),
		"codec.decode.busy_s":         busy("decode"),
		"codec.corrected_symbols":     float64(e.corrected),
		"codec.erased_symbols":        float64(e.erased),
		"codec.failed_codewords":      float64(e.failedCodewords),
		"core.demux.busy_share":       share(func(t *tracer) time.Duration { return t.busy("demux") }),
		"core.demux.spill_ratio":      ratio(float64(spills), float64(demuxed)),
		"core.intake_wait_share":      share(func(t *tracer) time.Duration { return t.work.intakeWait }),
		"core.overlap":                ratio(stages.Seconds(), wall.Seconds()),
		"core.self_s":                 self.Seconds(),
		"cluster.busy_s":              busy("cluster"),
		"cluster.edit_calls_per_read": ratio(float64(c.editCalls), float64(c.reads)),
		"cluster.cheap_merge_ratio":   ratio(float64(c.cheapMerges), float64(c.cheapMerges+c.editCalls)),
		"cluster.accuracy":            ratio(c.recovered, c.origins),
		"cluster.clusters_per_strand": ratio(float64(c.clusters), float64(gt.strandCount())),
		"recon.busy_s":                busy("recon"),
		"recon.cluster_p50_us":        quantile(perCluster, 0.5) * 1e6,
		"recon.cluster_p99_us":        quantile(perCluster, 0.99) * 1e6,
		"recon.perfect_ratio":         ratio(float64(w.perfect), float64(w.consensus)),
		"archive.checkpoint_share":    share(func(t *tracer) time.Duration { return t.busy("checkpoint") }),
		"archive.skip_ratio":          ratio(float64(w.skipped), float64(w.skipped+w.committed)),
		"archive.abandoned_volumes":   float64(w.abandoned),
	}
}

// withUnits pairs each value with its unit from the table that names it.
func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	m := make(map[string]metric, len(values))
	for name, v := range values {
		m[name] = metric{Value: v, Unit: units[name]}
	}
	return m
}

// writeSpans writes the traced phases' spans to <workdir>/spans-<workload>.tsv.
func writeSpans(o options, setupTr, opTr *tracer) (err error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.workdir, "spans-"+o.workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := fmt.Fprintln(f, "phase\tid\tparent\tlayer\tvolume\tstart_ns\tend_ns"); err != nil {
		return err
	}
	if err := setupTr.writeTSV(f, "setup"); err != nil {
		return err
	}
	if err := opTr.writeTSV(f, "op"); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "spans written to %s\n", path)
	return nil
}
