// Package core wires the five modules of the DNA storage pipeline (§III)
// into an end-to-end system: Encoding → Simulation → Clustering → Trace
// Reconstruction → Decoding/ECC. Every stage is an interface, so any module
// can be swapped for a custom implementation — the paper's central design
// goal — and the orchestrator reports per-stage latency and quality
// statistics (the breakdown of Table III).
//
// The orchestrator is a fault-tolerant runtime: every stage receives a
// context.Context with optional per-stage deadlines (cancellation is
// cooperative — the built-in worker pools check it between work items), a
// panicking stage surfaces as a typed ErrStagePanic instead of crashing the
// process, failed decodes can be retried under a rising cluster-size floor,
// and best-effort mode salvages a partial file with a per-unit damage map
// rather than returning a bare error. See RunOptions.
package core

import (
	"context"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// Simulator produces noisy reads from encoded strands. The default wraps
// sim.SimulatePoolContext; a fastq-backed implementation replaces it with real
// sequencing data (§VIII). Implementations should honour ctx cancellation
// between units of work and return the context's error when aborted.
type Simulator interface {
	Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error)
}

// Clusterer groups reads by (putative) origin, honouring ctx cancellation.
type Clusterer interface {
	Cluster(ctx context.Context, reads []dna.Seq) (cluster.Result, error)
}

// Reconstructor collapses each cluster into a consensus strand, honouring
// ctx cancellation between clusters.
type Reconstructor interface {
	ReconstructAll(ctx context.Context, clusters [][]dna.Seq, targetLen int) ([]dna.Seq, error)
	Name() string
}

// PoolSimulator adapts sim.Options to the Simulator interface.
type PoolSimulator struct {
	Options sim.Options
}

// Simulate implements Simulator.
func (p PoolSimulator) Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error) {
	return sim.SimulatePoolContext(ctx, strands, p.Options)
}

// ReadsSource replays pre-existing reads (e.g. preprocessed wetlab FASTQ
// data) instead of simulating; origins are unknown (-1).
type ReadsSource struct {
	Reads []dna.Seq
}

// Simulate implements Simulator by ignoring the strands and replaying the
// stored reads.
func (r ReadsSource) Simulate(context.Context, []dna.Seq) ([]sim.Read, error) {
	out := make([]sim.Read, len(r.Reads))
	for i, s := range r.Reads {
		out[i] = sim.Read{Seq: s, Origin: -1}
	}
	return out, nil
}

// VolumeSimulator is implemented by simulators that can derive an
// independent, deterministic noise stream per archive volume. The streaming
// runtime prefers it over Simulator so that a volume's reads depend only on
// (options, volume id) — never on which other volumes are in flight — which
// is what makes streamed output byte-identical at any worker count and
// in-flight depth. Simulators without it are called through Simulate once
// per volume (still deterministic, but every volume sees the same noise
// pattern).
type VolumeSimulator interface {
	Simulator
	SimulateVolume(ctx context.Context, volume uint32, strands []dna.Seq) ([]sim.Read, error)
}

// VolumeClusterer is the clustering analogue of VolumeSimulator: a
// deterministic per-volume seed derivation so shard clustering is a pure
// function of (options, volume id, reads).
type VolumeClusterer interface {
	Clusterer
	ClusterVolume(ctx context.Context, volume uint32, reads []dna.Seq) (cluster.Result, error)
}

// Per-volume seed streams of the streaming runtime. Each stage derives its
// volume seed under its own tag so the codec, simulator and clusterer
// streams never collide.
const (
	simVolumeSeedTag     = 0x73_696d_766f_6c75 // "simvolu"
	clusterVolumeSeedTag = 0x636c_7573_766f_6c // "clusvol"
)

// SimulateVolume implements VolumeSimulator with a per-volume derived seed.
func (p PoolSimulator) SimulateVolume(ctx context.Context, volume uint32, strands []dna.Seq) ([]sim.Read, error) {
	o := p.Options
	o.Seed = xrand.Derive(o.Seed, simVolumeSeedTag^uint64(volume)).Uint64()
	return sim.SimulatePoolContext(ctx, strands, o)
}

// OptionsClusterer adapts cluster.Options to the Clusterer interface.
type OptionsClusterer struct {
	Options cluster.Options
}

// Cluster implements Clusterer.
func (c OptionsClusterer) Cluster(ctx context.Context, reads []dna.Seq) (cluster.Result, error) {
	return cluster.ClusterContext(ctx, reads, c.Options)
}

// ClusterVolume implements VolumeClusterer with a per-volume derived seed.
func (c OptionsClusterer) ClusterVolume(ctx context.Context, volume uint32, reads []dna.Seq) (cluster.Result, error) {
	o := c.Options
	o.Seed = xrand.Derive(o.Seed, clusterVolumeSeedTag^uint64(volume)).Uint64()
	return cluster.ClusterContext(ctx, reads, o)
}

// ShardedClusterer adapts the distributed clustering variant (§VI-A) to the
// Clusterer interface: independent shards plus a representative-level merge
// round. A shard whose clustering panics degrades to singleton clusters
// instead of failing the stage.
type ShardedClusterer struct {
	Options cluster.Options
	Shards  int
}

// Cluster implements Clusterer.
func (c ShardedClusterer) Cluster(ctx context.Context, reads []dna.Seq) (cluster.Result, error) {
	return cluster.ShardedContext(ctx, reads, c.Shards, c.Options)
}

// ClusterVolume implements VolumeClusterer with a per-volume derived seed.
func (c ShardedClusterer) ClusterVolume(ctx context.Context, volume uint32, reads []dna.Seq) (cluster.Result, error) {
	o := c.Options
	o.Seed = xrand.Derive(o.Seed, clusterVolumeSeedTag^uint64(volume)).Uint64()
	return cluster.ShardedContext(ctx, reads, c.Shards, o)
}

// AlgorithmReconstructor adapts a recon.Algorithm to the Reconstructor
// interface with a worker pool of GOMAXPROCS workers.
type AlgorithmReconstructor struct {
	Algorithm recon.Algorithm
}

// ReconstructAll implements Reconstructor.
func (a AlgorithmReconstructor) ReconstructAll(ctx context.Context, clusters [][]dna.Seq, targetLen int) ([]dna.Seq, error) {
	return recon.ReconstructAllContext(ctx, clusters, targetLen, a.Algorithm, 0)
}

// Name implements Reconstructor.
func (a AlgorithmReconstructor) Name() string { return a.Algorithm.Name() }

// Pipeline is the end-to-end DNA storage system.
type Pipeline struct {
	Codec         *codec.Codec
	Simulator     Simulator
	Clusterer     Clusterer
	Reconstructor Reconstructor

	// Metrics, when set, is the observability sink: every run (batch,
	// stream, or per-volume) accumulates its per-stage counters into it,
	// and hooks registered on it (obs.Registry.OnEvent) fire at every
	// stage boundary — chaos.PanicHook rides these. RunContext and RunStream
	// record into a private registry and publish it in one merge at the
	// end, so their Stages stay exact under a shared sink; EncodeVolumes
	// and DecodeVolume record straight into Metrics. Nil disables
	// accumulation (each run's own counters are still reported, as
	// Result.Stages and StreamResult.Stages).
	Metrics *obs.Registry
}

// newRunRegistry creates the private per-run registry: exact local
// attribution during the run, the sink's hooks firing live, and one atomic
// publish into Metrics when the run finishes.
func (p *Pipeline) newRunRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.InheritHooks(p.Metrics)
	return reg
}

// New assembles a pipeline with the default module implementations:
// pool simulation with the given options, q-gram clustering with automatic
// thresholds, and double-sided BMA reconstruction.
func New(c *codec.Codec, simOpts sim.Options, clusterOpts cluster.Options, algo recon.Algorithm) *Pipeline {
	if algo == nil {
		algo = recon.DoubleSidedBMA{}
	}
	return &Pipeline{
		Codec:         c,
		Simulator:     PoolSimulator{Options: simOpts},
		Clusterer:     OptionsClusterer{Options: clusterOpts},
		Reconstructor: AlgorithmReconstructor{Algorithm: algo},
	}
}

// Result reports everything a RunContext call produced.
type Result struct {
	// Data is the recovered file contents.
	Data []byte
	// Report is the decoder's damage/repair summary.
	Report codec.Report
	// Stages holds the run's per-stage counters (busy time, items in and out,
	// retries): the Table III breakdown, and the same counters the run
	// publishes into Pipeline.Metrics.
	Stages []obs.StageSnapshot
	// ClusterStats reports the clustering work performed.
	ClusterStats cluster.Stats
	// Strands, Reads and Clusters count the intermediate volumes.
	Strands, Reads, Clusters int
	// Attempts counts the reconstruct+decode attempts performed (1 unless
	// RunOptions.Retries re-ran a failed decode).
	Attempts int
}

// RunOptions tweaks a pipeline execution.
type RunOptions struct {
	// StageTimeout bounds each stage invocation (simulate, cluster,
	// reconstruct, decode) with its own deadline. Enforcement is
	// cooperative: the built-in worker pools check the deadline between
	// work items, so an overrunning stage aborts promptly with an error
	// matching both ErrCancelled and context.DeadlineExceeded. 0 disables.
	StageTimeout time.Duration
	// Retries is the number of additional reconstruct+decode attempts after
	// a decode that is not clean (Report.Clean). Attempt i (0-based) keeps
	// only clusters of at least i+1 reads. A consensus from one or two
	// reads is frequently wrong, and a wrong strand costs the outer code
	// twice what a missing strand does (an error consumes two parity
	// symbols, an erasure one — §IV), so each retry turns the likeliest
	// errors into erasures. The first clean attempt ends the loop;
	// otherwise the attempt with the fewest failed codewords stands, the
	// earliest on a tie, so retrying never returns worse data than not
	// retrying. A retry whose floor keeps no cluster ends the attempts
	// (floors only rise). Simulation and clustering are not re-run: retries
	// re-interpret the same sequencing run. 0 disables retrying.
	Retries int
	// BestEffort decodes every attempt in best-effort mode
	// (codec.DecodeOptions.BestEffort): a file whose header unit is
	// corrupt, or a volume whose frame fails its checks, returns every
	// recoverable byte with Report.Partial set and Report.Units mapping the
	// damaged regions, and a nil error, instead of failing. Callers must
	// consult Result.Report before trusting the data. Only when no attempt
	// salvages anything does RunContext still return an error, with the last
	// attempt's report.
	BestEffort bool
}

// RunContext pushes data through the full pipeline and returns the
// recovered file with per-stage statistics. A non-nil error means the file
// could not be recovered at all; partial corruption is reported via
// Result.Report. Cancelling ctx (or exceeding its deadline) aborts the
// pipeline promptly with an error matching ErrCancelled, and
// RunOptions.StageTimeout adds a per-stage deadline on top. A stage that panics on the orchestrator's goroutine is contained and
// surfaced as ErrStagePanic; panics inside the built-in worker pools are
// salvaged even closer to the fault (see sim.SimulatePoolContext,
// recon.ReconstructAllContext and cluster.ClusterContext) and degrade the
// run instead of failing it.
func (p *Pipeline) RunContext(ctx context.Context, data []byte, opts RunOptions) (res Result, rerr error) {
	if p.Codec == nil || p.Simulator == nil || p.Clusterer == nil || p.Reconstructor == nil {
		return res, ErrNotConfigured
	}
	// The run records into a private registry (exact attribution even when
	// several runs share one Pipeline) and publishes into the Metrics sink
	// on every exit path; Result.Stages is its snapshot.
	reg := p.newRunRegistry()
	defer func() {
		res.Stages = reg.Snapshot()
		reg.Publish(p.Metrics)
	}()

	// Encode runs in-process with no per-stage deadline; the shared stage
	// runner still gives it pre-cancellation and panic containment.
	enc := reg.Stage(stageEncode)
	enc.AddIn(int64(len(data)))
	var strands []dna.Seq
	err := runStage(ctx, stageEncode, enc, 0, func(context.Context) error {
		var eerr error
		strands, eerr = p.Codec.EncodeFile(data)
		return eerr
	})
	if err != nil {
		return res, err
	}
	enc.AddOut(int64(len(strands)))
	res.Strands = len(strands)

	simSt := reg.Stage(stageSimulate)
	simSt.AddIn(int64(len(strands)))
	var reads []sim.Read
	err = runStage(ctx, stageSimulate, simSt, opts.StageTimeout, func(ctx context.Context) error {
		var serr error
		reads, serr = p.Simulator.Simulate(ctx, strands)
		return serr
	})
	if err != nil {
		return res, err
	}
	simSt.AddOut(int64(len(reads)))
	res.Reads = len(reads)

	seqs := sim.Sequences(reads)
	cluSt := reg.Stage(stageCluster)
	cluSt.AddIn(int64(len(seqs)))
	var clu cluster.Result
	err = runStage(ctx, stageCluster, cluSt, opts.StageTimeout, func(ctx context.Context) error {
		var cerr error
		clu, cerr = p.Clusterer.Cluster(ctx, seqs)
		return cerr
	})
	if err != nil {
		return res, err
	}
	cluSt.AddOut(int64(len(clu.Clusters)))
	res.Clusters = len(clu.Clusters)
	res.ClusterStats = clu.Stats

	outcome, err := p.runDecodePhase(ctx, decodeJob{
		strands:   res.Strands,
		targetLen: p.Codec.StrandLen(),
		decode: func(ctx context.Context, recons []dna.Seq, o codec.DecodeOptions) ([]byte, codec.Report, error) {
			return p.Codec.DecodeFileContext(ctx, recons, o)
		},
	}, opts, seqs, clu.Clusters, reg)
	res.Attempts = outcome.Attempts
	res.Data, res.Report = outcome.Data, outcome.Report
	return res, err
}

// decodeJob parameterizes the reconstruct+decode phase shared by the batch
// pipeline (whole-archive DecodeFileContext) and the streaming runtime
// (per-volume DecodeVolumeContext).
type decodeJob struct {
	// strands is the expected molecule count, for the all-clusters-dropped
	// damage report.
	strands int
	// targetLen is the reconstruction target strand length.
	targetLen int
	// decode turns reconstructed strands into bytes.
	decode func(ctx context.Context, recons []dna.Seq, o codec.DecodeOptions) ([]byte, codec.Report, error)
}

// decodeOutcome is what the attempt loop produced.
type decodeOutcome struct {
	Data     []byte
	Report   codec.Report
	Attempts int
}

// runDecodePhase is the reconstruct+decode attempt loop (see
// RunOptions.Retries): attempt i reconstructs the clusters of at least i+1
// reads with the pipeline's Reconstructor and decodes them once, in the
// run's own mode (best effort or strict), re-interpreting the same
// clustering. The first clean decode ends the loop; otherwise the attempt
// with the fewest failed codewords stands, the earliest on a tie. Reconstruct
// and Decode busy times, item counts and retry counters accumulate into reg
// across attempts.
func (p *Pipeline) runDecodePhase(ctx context.Context, job decodeJob, opts RunOptions, seqs []dna.Seq, clusters [][]int, reg *obs.Registry) (decodeOutcome, error) {
	recSt := reg.Stage(stageReconstruct)
	decSt := reg.Stage(stageDecode)
	var out decodeOutcome
	var lastErr error
	bestFailed := -1 // fewest failed codewords among data-producing attempts
	for attempt := 0; attempt <= opts.Retries; attempt++ {
		floor := attempt + 1
		clusterSeqs := filterClusters(seqs, clusters, floor)
		if len(clusterSeqs) == 0 {
			if attempt > 0 {
				// Floors only rise, so no later attempt keeps a cluster
				// either: end with what the earlier attempts produced.
				break
			}
			// Nothing to reconstruct at all: give up with an accurate
			// report, every expected molecule missing.
			out.Report = codec.Report{MissingColumns: job.strands}
			return out, noUsableClustersErr(floor, len(clusters))
		}
		out.Attempts = attempt + 1
		if attempt > 0 {
			// Both stages re-run on a retry; each counts it.
			recSt.AddRetries(1)
			decSt.AddRetries(1)
		}
		recSt.AddIn(int64(len(clusterSeqs)))
		var recons []dna.Seq
		err := runStage(ctx, stageReconstruct, recSt, opts.StageTimeout, func(ctx context.Context) error {
			var rerr error
			recons, rerr = p.Reconstructor.ReconstructAll(ctx, clusterSeqs, job.targetLen)
			return rerr
		})
		if err != nil {
			return out, err // cancellation or stage panic aborts the run
		}
		recSt.AddOut(int64(len(recons)))

		decSt.AddIn(int64(len(recons)))
		var data []byte
		var report codec.Report
		err = runStage(ctx, stageDecode, decSt, opts.StageTimeout, func(ctx context.Context) error {
			var derr error
			data, report, derr = job.decode(ctx, recons, codec.DecodeOptions{BestEffort: opts.BestEffort})
			return derr
		})
		if err != nil {
			if isAbort(err) {
				return out, err
			}
			// The decoder populates its report even on failure; keep the
			// last one so a failed run still explains what it saw.
			if bestFailed < 0 {
				out.Report = report
			}
			lastErr = err
			continue
		}
		decSt.AddOut(int64(len(data)))
		if report.Clean() {
			// Fully recovered (modulo repaired damage): done.
			out.Data, out.Report = data, report
			return out, nil
		}
		if bestFailed < 0 || report.FailedCodewords < bestFailed {
			// Data came back but some of it is unverified; keep the
			// least-damaged attempt in case no retry does better.
			bestFailed = report.FailedCodewords
			out.Data, out.Report = data, report
		}
	}

	if bestFailed >= 0 {
		// Damaged data is returned without an error; Report flags the
		// damage.
		return out, nil
	}
	if opts.Retries > 0 {
		return out, retriesExhaustedErr(out.Attempts, lastErr)
	}
	return out, lastErr
}

// filterClusters materializes the clusters with at least minSize reads.
func filterClusters(seqs []dna.Seq, clusters [][]int, minSize int) [][]dna.Seq {
	out := make([][]dna.Seq, 0, len(clusters))
	for _, members := range clusters {
		if len(members) < minSize {
			continue
		}
		cs := make([]dna.Seq, len(members))
		for j, m := range members {
			cs[j] = seqs[m]
		}
		out = append(out, cs)
	}
	return out
}
