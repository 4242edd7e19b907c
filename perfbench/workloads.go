package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dnastore/internal/archive"
	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/core"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
)

// Seed tags: every random stream of a workload derives from --seed under
// its own tag. The codec scrambler and clustering seeds are configuration
// and stay fixed.
const (
	tagData  = 1 // archive or file payload
	tagWarm  = 2 // warm-up payload
	tagNoise = 3 // simulated wetlab noise
	tagExtra = 4 // noisy-batch's untimed second file

	codecSeed   = 7
	clusterSeed = 9
)

// sizes scales the workloads: the benchmark runs fullSize, its own test a
// quick size with the same code paths.
type sizes struct {
	archiveBytes  int64 // stream-roundtrip payload
	restoreBytes  int64 // archive-restore payload
	volumeBytes   int
	warmBytes     int64 // warm-up payload of the two streaming workloads
	fileBytes     int64 // noisy-batch file
	warmFileBytes int64 // noisy-batch warm-up file
}

// fullSize: 128 KiB volumes, large enough that a restore's three fsyncs
// per volume stay a small share of it; a 16 MiB round trip (128 volumes,
// so at least ten latency samples lie beyond each operation's p90); an
// 8 MiB restore (64 volumes, short enough that a run holds six or more
// restores); and a 240 KB file at the paper's Table III point (≈100 k
// reads).
var fullSize = sizes{
	archiveBytes:  16 << 20,
	restoreBytes:  8 << 20,
	volumeBytes:   128 << 10,
	warmBytes:     512 << 10,
	fileBytes:     240_000,
	warmFileBytes: 24_000,
}

// restoreWorkers is the number of in-process archive workers.
const restoreWorkers = 2

// workload is one benchmark scenario.
type workload interface {
	// setup generates the inputs, builds the pipeline (and for
	// archive-restore the archive) and warms the pipeline up. It may run
	// several times; the last instance is measured. A non-nil tr traces the
	// archive build.
	setup(ctx context.Context, tr *tracer) error
	// op runs one timed operation and checks its output. A non-nil tr
	// traces it. Program failures land in the result; an error means the
	// benchmark itself could not go on.
	op(ctx context.Context, tr *tracer) (opResult, error)
	// close removes the workload's files.
	close() error
}

// referencer is a workload whose operations cannot see the decoder's
// reports (archive workers persist only damaged-unit lists): a reference
// decode of the same input supplies them.
type referencer interface {
	reference(ctx context.Context) (refResult, error)
}

// eccWidener is a workload whose timed input holds too few codewords for
// ecc_load to be steady from seed to seed: it decodes one more seeded
// input, untimed, whose correction work joins the run's.
type eccWidener interface {
	widenECC(ctx context.Context) (ecc, []string, error)
}

// opResult is one timed operation's measurement and verdict.
type opResult struct {
	sample
	bytes     int64           // payload bytes carried
	latency   []time.Duration // per volume, or the file's whole run
	attempted int             // volumes, or the one file
	failed    int
	pumps     int // goroutines that run stages: bounds Σ stage spans ≤ pumps·wall
	ecc       ecc
	counts    counts
	problems  []string
}

// refResult is a reference decode's accounting and its disagreements with
// the measured operations.
type refResult struct {
	ecc      ecc
	counts   counts
	problems []string
}

// ecc is the Reed–Solomon correction work of one operation.
type ecc struct {
	corrected, erased, failedCodewords int64
	budget                             int64 // codewords · (n−k)
}

// load is the share of the correction budget consumed: an error costs two
// parity symbols, an erasure one.
func (e ecc) load() float64 { return ratio(float64(2*e.corrected+e.erased), float64(e.budget)) }

func (e ecc) plus(o ecc) ecc {
	return ecc{
		corrected: e.corrected + o.corrected, erased: e.erased + o.erased,
		failedCodewords: e.failedCodewords + o.failedCodewords, budget: e.budget + o.budget,
	}
}

func eccOf(reports []codec.Report, strands int, p codec.Params) ecc {
	e := ecc{budget: int64(strands/p.N) * int64(p.PayloadBytes) * int64(p.N-p.K)}
	for _, r := range reports {
		e.corrected += int64(r.CorrectedSymbols)
		e.erased += int64(r.ErasedSymbols)
		e.failedCodewords += int64(r.FailedCodewords)
	}
	return e
}

// counts are an operation's schedule-independent work counts: repeated
// runs at one seed must reproduce them exactly.
type counts struct {
	Reads, Clusters, EditCalls, Merges, CheapMerges, Spilled int64
	Corrected, Erased, FailedCodewords, Attempts             int64
}

func newWorkload(name string, seed uint64, dir string, sz sizes) (workload, error) {
	switch name {
	case "stream-roundtrip":
		return &streamRoundtrip{seed: seed, sz: sz}, nil
	case "noisy-batch":
		return &noisyBatch{seed: seed, sz: sz}, nil
	case "archive-restore":
		return &archiveRestore{seed: seed, sz: sz, root: filepath.Join(dir, name)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want stream-roundtrip, noisy-batch or archive-restore)", name)
}

// streamPipeline is the pipeline of stream-roundtrip and archive-restore:
// internal/bench's stream pipeline — a 12-base index wide enough for many
// volumes, near-clean reads at fixed coverage 3, clustering with 5-grams,
// pinned thresholds, six rounds and no straggler sweep, double-sided BMA —
// with 12 parity strands in 48 instead of 8. With 8, about one 16 MiB
// archive in five loses a volume to a codeword with five consensus errors;
// a workload must not fail on any seed.
func streamPipeline(seed uint64) (*core.Pipeline, error) {
	c, err := codec.NewCodec(codec.Params{N: 48, K: 36, PayloadBytes: 120, IndexBases: 12, Seed: codecSeed})
	if err != nil {
		return nil, fmt.Errorf("stream codec: %w", err)
	}
	return &core.Pipeline{
		Codec: c,
		Simulator: core.PoolSimulator{Options: sim.Options{
			Channel:  sim.CalibratedIID(0.001),
			Coverage: sim.FixedCoverage(3),
			Seed:     derive(seed, tagNoise),
		}},
		Clusterer: core.OptionsClusterer{Options: cluster.Options{
			Seed: clusterSeed, Rounds: 6, NoStragglerSweep: true,
			GramLen: 5, ThetaLow: 4, ThetaHigh: 12, EditThreshold: 40,
		}},
		Reconstructor: core.AlgorithmReconstructor{Algorithm: recon.DoubleSidedBMA{}},
	}, nil
}

// streamOptions: two volumes per pooled sample, at most four volumes in
// flight, and two workers per stage pool — one per core of the reference
// machine.
func streamOptions(sz sizes) core.StreamOptions {
	return core.StreamOptions{VolumeBytes: sz.volumeBytes, PoolGroup: 2, InFlight: 4, Workers: 2}
}

// streamCounts are a RunStream's deterministic counts.
func streamCounts(res core.StreamResult, e ecc) counts {
	return counts{
		Reads: int64(res.Reads), Clusters: int64(res.Clusters),
		EditCalls: int64(res.ClusterStats.EditDistanceCalls), Merges: int64(res.ClusterStats.Merges),
		CheapMerges: int64(res.ClusterStats.CheapMerges), Spilled: int64(res.ClusterStats.Spilled),
		Corrected: e.corrected, Erased: e.erased, FailedCodewords: e.failedCodewords,
		Attempts: int64(res.Attempts),
	}
}

func streamReports(res core.StreamResult) []codec.Report {
	out := make([]codec.Report, len(res.Volumes))
	for i, v := range res.Volumes {
		out[i] = v.Report
	}
	return out
}

// trip is one metered round trip of a payload: the reader and writer
// handed to RunStream, and the checker behind the writer.
type trip struct {
	data payload
	rd   *meteredReader
	wr   *meteredWriter
	chk  *checker
}

func newTrip(data payload, volBytes int, tr *tracer) trip {
	chk := newChecker(data, volBytes)
	return trip{
		data: data,
		rd:   &meteredReader{r: data.reader(), volBytes: int64(volBytes), tr: tr},
		wr:   &meteredWriter{w: chk, volBytes: int64(volBytes), size: data.size, tr: tr},
		chk:  chk,
	}
}

// run streams the payload through pipe and checks every byte that comes
// back. It returns the run's result, the failed volumes and what went
// wrong.
func (t trip) run(ctx context.Context, pipe *core.Pipeline, opts core.StreamOptions) (core.StreamResult, map[int64]bool, []string) {
	res, err := pipe.RunStream(ctx, t.rd, t.wr, opts)
	var problems []string
	if err != nil {
		problems = append(problems, fmt.Sprintf("RunStream: %v", err))
	}
	failed := t.failedVolumes(res)
	if n := len(failed); n > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d volumes failed or came back wrong", n, volumes(t.data.size, t.chk.volBytes)))
	}
	return res, failed, problems
}

// failedVolumes merges the program's per-volume outcomes into the
// checker's verdict.
func (t trip) failedVolumes(res core.StreamResult) map[int64]bool {
	failed := t.chk.failedSet()
	for _, v := range res.Volumes {
		if v.Err != nil || v.Outcome != core.OutcomeDecoded {
			failed[int64(v.ID)] = true
		}
	}
	return failed
}

// streamRoundtrip: RunStream over a random archive, write and read paths
// overlapped under the in-flight bound.
type streamRoundtrip struct {
	seed uint64
	sz   sizes
	pipe *core.Pipeline
	data payload
}

func (w *streamRoundtrip) setup(ctx context.Context, _ *tracer) error {
	pipe, err := streamPipeline(w.seed)
	if err != nil {
		return err
	}
	opts := streamOptions(w.sz)
	warm := payload{seed: derive(w.seed, tagWarm), size: w.sz.warmBytes}
	if _, _, problems := newTrip(warm, opts.VolumeBytes, nil).run(ctx, pipe, opts); len(problems) > 0 {
		return fmt.Errorf("warm-up round trip: %s", strings.Join(problems, "; "))
	}
	w.pipe = pipe
	w.data = payload{seed: derive(w.seed, tagData), size: w.sz.archiveBytes}
	return nil
}

func (w *streamRoundtrip) op(ctx context.Context, tr *tracer) (opResult, error) {
	opts := streamOptions(w.sz)
	t := newTrip(w.data, opts.VolumeBytes, tr)
	pipe := w.pipe
	if tr != nil {
		pipe = tr.pipeline(w.pipe)
	}
	var res core.StreamResult
	var failed map[int64]bool
	var problems []string
	s := measured(func() {
		end := tr.phase("op")
		res, failed, problems = t.run(ctx, pipe, opts)
		end()
	})
	if err := ctx.Err(); err != nil {
		return opResult{}, err
	}
	tr.addIntake(t.rd.wait)
	e := eccOf(streamReports(res), res.Strands, w.pipe.Codec.Params())
	return opResult{
		sample: s, bytes: w.data.size, latency: latencies(t.rd, t.wr),
		attempted: int(volumes(w.data.size, int64(opts.VolumeBytes))), failed: len(failed),
		pumps: 2 * opts.Workers, ecc: e, counts: streamCounts(res, e), problems: problems,
	}, nil
}

func (w *streamRoundtrip) close() error { return nil }

// noisyPipeline is the paper's Table III point: N=150, K=120 with 30-byte
// payloads, 6 % IID error at Poisson coverage 10, default clustering
// (automatic thresholds, straggler sweep on) and Adaptive consensus.
func noisyPipeline(seed uint64) (*core.Pipeline, error) {
	c, err := codec.NewCodec(codec.Params{N: 150, K: 120, PayloadBytes: 30, Seed: codecSeed})
	if err != nil {
		return nil, fmt.Errorf("batch codec: %w", err)
	}
	return core.New(c,
		sim.Options{Channel: sim.CalibratedIID(0.06), Coverage: sim.PoissonCoverage(10), Seed: derive(seed, tagNoise)},
		cluster.Options{Seed: clusterSeed},
		recon.Adaptive{}), nil
}

// noisyBatch: batch Run of one file at the paper's noisy operating point,
// where clustering and consensus dominate and RS corrects thousands of
// symbols.
type noisyBatch struct {
	seed uint64
	sz   sizes
	pipe *core.Pipeline
	data []byte
}

// batchRun runs one file through pipe and checks it came back whole.
func batchRun(ctx context.Context, pipe *core.Pipeline, data []byte) (core.Result, []string) {
	res, err := pipe.RunContext(ctx, data, core.RunOptions{})
	var problems []string
	switch {
	case err != nil:
		problems = append(problems, fmt.Sprintf("Run: %v", err))
	case res.Report.FailedCodewords != 0:
		problems = append(problems, fmt.Sprintf("Run: %d failed codewords", res.Report.FailedCodewords))
	case !bytes.Equal(res.Data, data):
		problems = append(problems, "Run: recovered file differs from the input")
	}
	return res, problems
}

func (w *noisyBatch) setup(ctx context.Context, _ *tracer) error {
	data := payload{seed: derive(w.seed, tagData), size: w.sz.fileBytes}.bytes()
	pipe, err := noisyPipeline(w.seed)
	if err != nil {
		return err
	}
	warm := payload{seed: derive(w.seed, tagWarm), size: w.sz.warmFileBytes}.bytes()
	if _, problems := batchRun(ctx, pipe, warm); len(problems) > 0 {
		return fmt.Errorf("warm-up run: %s", strings.Join(problems, "; "))
	}
	w.pipe, w.data = pipe, data
	return nil
}

func (w *noisyBatch) op(ctx context.Context, tr *tracer) (opResult, error) {
	pipe := w.pipe
	if tr != nil {
		pipe = tr.pipeline(w.pipe)
	}
	var res core.Result
	var problems []string
	s := measured(func() {
		end := tr.phase("op")
		res, problems = batchRun(ctx, pipe, w.data)
		end()
	})
	if err := ctx.Err(); err != nil {
		return opResult{}, err
	}
	e := eccOf([]codec.Report{res.Report}, res.Strands, w.pipe.Codec.Params())
	r := opResult{
		sample: s, bytes: int64(len(w.data)), latency: []time.Duration{s.wall},
		attempted: 1, pumps: 1, ecc: e, problems: problems,
		counts: counts{
			Reads: int64(res.Reads), Clusters: int64(res.Clusters),
			EditCalls: int64(res.ClusterStats.EditDistanceCalls), Merges: int64(res.ClusterStats.Merges),
			CheapMerges: int64(res.ClusterStats.CheapMerges),
			Corrected:   e.corrected, Erased: e.erased, FailedCodewords: e.failedCodewords,
			Attempts: int64(res.Attempts),
		},
	}
	if len(problems) > 0 {
		r.failed = 1
	}
	return r, nil
}

// widenECC runs the workload once more at a seed derived from the run's:
// another file under its own noise. One 240 KB file loses about 160
// strands to erasure, so its ECC load differs by about a tenth from seed
// to seed; two files halve that variance.
func (w *noisyBatch) widenECC(ctx context.Context) (ecc, []string, error) {
	seed := derive(w.seed, tagExtra)
	pipe, err := noisyPipeline(seed)
	if err != nil {
		return ecc{}, nil, err
	}
	data := payload{seed: derive(seed, tagData), size: w.sz.fileBytes}.bytes()
	res, problems := batchRun(ctx, pipe, data)
	if err := ctx.Err(); err != nil {
		return ecc{}, nil, err
	}
	for i := range problems {
		problems[i] = "second file: " + problems[i]
	}
	return eccOf([]codec.Report{res.Report}, res.Strands, pipe.Codec.Params()), problems, nil
}

func (w *noisyBatch) close() error { return nil }

// archiveRestore: the read path alone, from durable storage. The archive
// (the stream pipeline's, half the size) is built during set-up; each
// operation restores it with two in-process workers sharing one output
// file, and archive.Audit checks the result.
type archiveRestore struct {
	seed uint64
	sz   sizes
	root string
	pipe *core.Pipeline
	data payload
	m    *codec.Manifest
	last []archive.VolumeAudit // the latest operation's audit, for the reference check
}

func (w *archiveRestore) dir() string { return filepath.Join(w.root, "archive") }
func (w *archiveRestore) out() string { return filepath.Join(w.root, "restored.bin") }

func (w *archiveRestore) setup(ctx context.Context, tr *tracer) error {
	pipe, err := streamPipeline(w.seed)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(w.root); err != nil {
		return err
	}
	opts := streamOptions(w.sz)

	// Warm-up: build and restore a small archive of its own.
	warm := payload{seed: derive(w.seed, tagWarm), size: w.sz.warmBytes}
	wdir, wout := filepath.Join(w.root, "warm"), filepath.Join(w.root, "warm.bin")
	if _, err := archive.Build(ctx, pipe, warm.reader(), wdir, opts); err != nil {
		return fmt.Errorf("warm-up build: %w", err)
	}
	run := restore(ctx, pipe, wdir, wout, nil)
	if err := errors.Join(run.errs[:]...); err != nil {
		return fmt.Errorf("warm-up restore: %w", err)
	}
	if bad, err := checkFile(wout, warm, opts.VolumeBytes); err != nil || len(bad) > 0 {
		return fmt.Errorf("warm-up restore: %d wrong volumes (%v)", len(bad), err)
	}
	if err := os.RemoveAll(wdir); err != nil {
		return err
	}

	w.data = payload{seed: derive(w.seed, tagData), size: w.sz.restoreBytes}
	p := pipe
	if tr != nil {
		p = tr.pipeline(pipe)
	}
	rd := &meteredReader{r: w.data.reader(), volBytes: int64(opts.VolumeBytes), tr: tr}
	end := tr.phase("build")
	m, err := archive.Build(ctx, p, rd, w.dir(), opts)
	end()
	if err != nil {
		return fmt.Errorf("archive build: %w", err)
	}
	tr.addIntake(rd.wait)
	w.pipe, w.m = pipe, m
	return nil
}

// restoreRun is what one restore's workers reported.
type restoreRun struct {
	results [restoreWorkers]archive.WorkerResult
	errs    [restoreWorkers]error
	meter   *commitMeter
}

// restore runs the archive workers to completion, each on its own
// goroutine, all writing into out.
func restore(ctx context.Context, p *core.Pipeline, dir, out string, tr *tracer) restoreRun {
	r := restoreRun{meter: &commitMeter{}}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range r.results {
		owner := fmt.Sprintf("restore-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.results[i], r.errs[i] = archive.RunWorker(ctx, p, dir, out, archive.WorkerOptions{
				Owner:  owner,
				Stream: core.StreamOptions{Workers: 1},
				Hooks:  archive.Hooks{WriteCheckpoint: r.meter.hook(owner, start, tr)},
			})
		}()
	}
	wg.Wait()
	return r
}

// resetRestore discards a previous restore's leases, checkpoints and output.
func (w *archiveRestore) resetRestore() error {
	state := archive.Dir(w.dir()).StatePath()
	if err := os.RemoveAll(state); err != nil {
		return err
	}
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	if err := os.Remove(w.out()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

func (w *archiveRestore) op(ctx context.Context, tr *tracer) (opResult, error) {
	if err := w.resetRestore(); err != nil {
		return opResult{}, fmt.Errorf("reset restore state: %w", err)
	}
	p := w.pipe
	if tr != nil {
		p = tr.pipeline(w.pipe)
	}
	var run restoreRun
	s := measured(func() {
		end := tr.phase("op")
		run = restore(ctx, p, w.dir(), w.out(), tr)
		end()
	})
	if err := ctx.Err(); err != nil {
		return opResult{}, err
	}
	return w.verify(s, run, tr)
}

// verify checks a restore: the workers' errors, the audit, and every
// restored byte against the payload.
func (w *archiveRestore) verify(s sample, run restoreRun, tr *tracer) (opResult, error) {
	r := opResult{
		sample: s, bytes: w.data.size, latency: run.meter.latency,
		attempted: len(w.m.Volumes), pumps: restoreWorkers,
	}
	for i, res := range run.results {
		if run.errs[i] != nil {
			r.problems = append(r.problems, fmt.Sprintf("worker %d: %v", i, run.errs[i]))
		}
		tr.addRestore(res)
	}

	failed := map[int64]bool{}
	audit, err := archive.Audit(w.dir(), w.out())
	if err != nil {
		r.problems = append(r.problems, fmt.Sprintf("audit: %v", err))
		r.failed = r.attempted
		return r, nil
	}
	if !audit.Ok() {
		r.problems = append(r.problems, fmt.Sprintf("audit: %d missing, %d mismatched", audit.Missing, audit.Mismatched))
	}
	for _, v := range audit.Volumes {
		if v.Status != archive.AuditOK || v.Outcome != core.OutcomeDecoded {
			failed[int64(v.ID)] = true
		}
		r.counts.Attempts += int64(v.Attempts)
	}
	bad, err := checkFile(w.out(), w.data, w.m.VolumeBytes)
	if err != nil {
		return opResult{}, err
	}
	for v := range bad {
		failed[v] = true
	}
	if len(failed) > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d volumes failed or came back wrong", len(failed), r.attempted))
	}
	r.failed = len(failed)
	for _, mv := range w.m.Volumes {
		r.counts.Reads += int64(mv.Reads)
		r.counts.Spilled += int64(mv.Spilled)
	}
	w.last = audit.Volumes
	return r, nil
}

// reference decodes the same input in process with RunStream — the path
// the archive's byte-identity guarantee pins the workers to — for the
// decoder reports the workers do not persist, and checks that every volume
// ended the same way in both.
func (w *archiveRestore) reference(ctx context.Context) (refResult, error) {
	opts := streamOptions(w.sz)
	res, _, problems := newTrip(w.data, opts.VolumeBytes, nil).run(ctx, w.pipe, opts)
	if err := ctx.Err(); err != nil {
		return refResult{}, err
	}
	return w.compare(res, problems), nil
}

// compare checks that every volume ended the same way in the reference
// decode as in the latest restore.
func (w *archiveRestore) compare(res core.StreamResult, problems []string) refResult {
	for i, v := range res.Volumes {
		if i < len(w.last) && (w.last[i].Outcome != v.Outcome || w.last[i].Attempts != v.Attempts) {
			problems = append(problems, fmt.Sprintf("volume %d: restore %s after %d attempts, reference %s after %d",
				v.ID, w.last[i].Outcome, w.last[i].Attempts, v.Outcome, v.Attempts))
		}
	}
	e := eccOf(streamReports(res), res.Strands, w.pipe.Codec.Params())
	for i := range problems {
		problems[i] = "reference decode: " + problems[i]
	}
	return refResult{ecc: e, counts: streamCounts(res, e), problems: problems}
}

func (w *archiveRestore) close() error { return os.RemoveAll(w.root) }
