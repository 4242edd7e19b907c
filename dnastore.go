// Package dnastore is an open-source, end-to-end DNA data storage toolkit:
// a Go reproduction of "DNA Storage Toolkit: A Modular End-to-End DNA Data
// Storage Codec and Simulator" (ISPASS 2024).
//
// The toolkit takes an input file through the entire DNA storage pipeline:
//
//	file → Encode (Reed–Solomon matrix, §IV) → DNA strands
//	     → Simulate wetlab (synthesis/storage/sequencing noise, §V)
//	     → Cluster noisy reads (§VI)
//	     → Trace reconstruction (§VII)
//	     → Decode + error correction (§IV) → file
//
// Every module is swappable. This package is a curated facade over the
// implementation packages; the type aliases below are the stable public
// API. A minimal round trip:
//
//	codec, _ := dnastore.NewCodec(dnastore.CodecParams{
//		N: 30, K: 20, PayloadBytes: 30, Seed: 42,
//	})
//	pipe := dnastore.NewPipeline(codec,
//		dnastore.SimOptions{Channel: dnastore.CalibratedIID(0.06),
//			Coverage: dnastore.FixedCoverage(10), Seed: 1},
//		dnastore.ClusterOptions{Seed: 2},
//		dnastore.NWReconstruction{})
//	res, err := pipe.RunContext(context.Background(), data, dnastore.RunOptions{})
//	// res.Data == data; res.Stages holds the per-stage counters (busy time,
//	// items in and out), the Table III latency breakdown.
package dnastore

import (
	"dnastore/internal/archive"
	"dnastore/internal/chaos"
	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/core"
	"dnastore/internal/dna"
	"dnastore/internal/fastq"
	"dnastore/internal/obs"
	"dnastore/internal/pool"
	"dnastore/internal/primer"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
)

// Core sequence types.
type (
	// Seq is a DNA sequence over {A,C,G,T}.
	Seq = dna.Seq
	// Base is a single nucleotide.
	Base = dna.Base
)

// Sequence constructors re-exported from the dna package.
var (
	// ParseSeq parses an ASCII DNA string.
	ParseSeq = dna.FromString
	// MustParseSeq parses a known-good DNA literal or panics.
	MustParseSeq = dna.MustFromString
)

// Encoding / decoding (§IV).
type (
	// CodecParams configures the encoder/decoder.
	CodecParams = codec.Params
	// Codec converts files to DNA strands and back.
	Codec = codec.Codec
	// DecodeReport summarizes damage seen and repaired during decode.
	DecodeReport = codec.Report
	// Baseline is the Organick et al. matrix layout.
	Baseline = codec.BaselineLayout
	// Gini is the diagonal layout equalizing reliability skew (§IV-B).
	Gini = codec.GiniLayout
	// Mapper is DNAMapper: priority-aware data placement (§IV-C).
	Mapper = codec.Mapper
	// PriorityFunc ranks framed bytes for DNAMapper.
	PriorityFunc = codec.PriorityFunc
)

// NewCodec validates params and returns a Codec.
func NewCodec(p CodecParams) (*Codec, error) { return codec.NewCodec(p) }

// NewMapper builds a DNAMapper from a per-row reliability profile.
func NewMapper(profile []float64, priority PriorityFunc) *Mapper {
	return codec.NewMapper(profile, priority)
}

// Primers (§II-D, §VIII).
type (
	// PrimerPair addresses one file in the DNA pool.
	PrimerPair = primer.Pair
	// PrimerOptions constrains primer design.
	PrimerOptions = primer.DesignOptions
)

// DesignPrimers generates mutually distant, chemically well-behaved primer
// pairs.
func DesignPrimers(seed uint64, n int, opts PrimerOptions) ([]PrimerPair, error) {
	return primer.Design(seed, n, opts)
}

// Wetlab simulation (§V).
type (
	// SimOptions configures the simulated wetlab.
	SimOptions = sim.Options
	// SimRead is a simulated sequencing read with its ground-truth origin.
	SimRead = sim.Read
	// IIDChannel is the naive Rashtchian error model.
	IIDChannel = sim.IIDChannel
	// SOLQCChannel conditions error rates on the nucleotide.
	SOLQCChannel = sim.SOLQCChannel
	// ReferenceWetlab is the complex stand-in for real sequenced data.
	ReferenceWetlab = sim.ReferenceWetlab
	// LearnedProfile is the data-driven simulator trained on paired reads.
	LearnedProfile = sim.LearnedProfile
	// RNNSimulator is the GRU sequence-to-sequence simulator (Fig. 4).
	RNNSimulator = sim.RNNSimulator
	// Channel is the noise-model interface all simulators implement.
	Channel = sim.Channel
	// FixedCoverage yields a constant number of reads per strand.
	FixedCoverage = sim.FixedCoverage
	// PoissonCoverage models shotgun-sequencing coverage.
	PoissonCoverage = sim.PoissonCoverage
	// SkewedCoverage models PCR amplification skew.
	SkewedCoverage = sim.SkewedCoverage
	// TrainingPair is a paired clean/noisy example for data-driven models.
	TrainingPair = sim.Pair
)

// Simulator constructors re-exported from the sim package.
var (
	// CalibratedIID splits an aggregate error rate across the error types.
	CalibratedIID = sim.CalibratedIID
	// NewReferenceWetlab returns the reference channel at default severity.
	NewReferenceWetlab = sim.NewReferenceWetlab
	// TrainProfile fits a LearnedProfile to paired clean/noisy strands.
	TrainProfile = sim.TrainProfile
	// GeneratePairs produces a paired training dataset through a channel.
	GeneratePairs = sim.GeneratePairs
	// SimulatePool pushes strands through a simulated wetlab, honouring
	// ctx cancellation; it returns ErrNoChannel when SimOptions.Channel is
	// unset.
	SimulatePool = sim.SimulatePoolContext
	// ErrNoChannel marks SimOptions without a Channel.
	ErrNoChannel = sim.ErrNoChannel
)

// Clustering (§VI).
type (
	// ClusterOptions configures the clustering module.
	ClusterOptions = cluster.Options
	// ClusterResult holds clusters of read indices plus work statistics.
	ClusterResult = cluster.Result
	// ClusterStats reports merges, edit-distance calls and timings.
	ClusterStats = cluster.Stats
)

// Clustering mode constants.
const (
	// QGram selects presence-bit signatures with Hamming distance.
	QGram = cluster.QGram
	// WGram selects first-occurrence signatures with the L1 norm (§VI-C).
	WGram = cluster.WGram
)

// Clustering functions re-exported from the cluster package.
var (
	// ClusterReads groups noisy reads by putative origin, honouring ctx
	// cancellation; ClusterOptions it cannot run return ErrClusterOptions.
	ClusterReads = cluster.ClusterContext
	// ShardedClusterReads runs the distributed variant: independent shards
	// plus a representative-level merge round (§VI-A).
	ShardedClusterReads = cluster.ShardedContext
	// ErrClusterOptions marks ClusterOptions the clustering module cannot
	// run (a GramLen outside [0, 8]).
	ErrClusterOptions = cluster.ErrOptions
	// ClusteringAccuracy scores clusters against ground truth.
	ClusteringAccuracy = cluster.Accuracy
	// ClusteringPurity is the majority-origin read fraction.
	ClusteringPurity = cluster.Purity
)

// Trace reconstruction (§VII).
type (
	// Reconstruction is the trace-reconstruction algorithm interface.
	Reconstruction = recon.Algorithm
	// BMAReconstruction is the BMA-lookahead baseline.
	BMAReconstruction = recon.BMA
	// DoubleSidedBMAReconstruction joins two half reconstructions (§VII-B).
	DoubleSidedBMAReconstruction = recon.DoubleSidedBMA
	// NWReconstruction is the POA/Needleman–Wunsch consensus (§VII-C).
	NWReconstruction = recon.NW
	// AdaptiveReconstruction dispatches per cluster: BMA first, POA/NW only
	// when the BMA consensus fails a quick agreement check.
	AdaptiveReconstruction = recon.Adaptive
)

// Reconstruction helpers re-exported from the recon package.
var (
	// ReconstructAll reconstructs clusters in parallel under a context:
	// one consensus per cluster, in order, nil for an empty cluster.
	ReconstructAll = recon.ReconstructAllContext
	// ErrorProfile tabulates per-index reconstruction error rates.
	ErrorProfile = recon.ErrorProfile
	// PerfectCount counts exactly reconstructed strands.
	PerfectCount = recon.PerfectCount
)

// Pipeline (§III).
type (
	// Pipeline wires the five modules end to end.
	Pipeline = core.Pipeline
	// RunOptions tweaks a pipeline execution.
	RunOptions = core.RunOptions
	// RunResult reports recovered data and per-stage statistics.
	RunResult = core.Result
	// ReadsSource replays wetlab reads in place of the simulator (§VIII).
	ReadsSource = core.ReadsSource
	// Simulator is the pipeline's read-production stage interface.
	Simulator = core.Simulator
	// Clusterer is the pipeline's clustering stage interface.
	Clusterer = core.Clusterer
	// Reconstructor is the pipeline's consensus stage interface.
	Reconstructor = core.Reconstructor
	// AlgorithmReconstructor adapts a Reconstruction algorithm to the
	// Reconstructor stage interface with a worker pool — the way to put any
	// algorithm, or a custom one, into a hand-built Pipeline.
	AlgorithmReconstructor = core.AlgorithmReconstructor
	// ShardedClusterer runs the distributed clustering variant (§VI-A)
	// inside a pipeline.
	ShardedClusterer = core.ShardedClusterer
	// UnitDamage maps the damage inside one encoding unit after decode.
	UnitDamage = codec.UnitDamage
	// DecodeOptions tweaks Codec.DecodeFileContext (best-effort salvage).
	DecodeOptions = codec.DecodeOptions
)

// Streaming volume-sharded runtime: bounded-memory, stage-overlapped
// end-to-end runs over archives of any size (Pipeline.RunStream).
type (
	// StreamOptions configures Pipeline.RunStream: volume size, in-flight
	// bound, pooled-demux group width and stage worker counts.
	StreamOptions = core.StreamOptions
	// StreamResult aggregates a streaming run: per-volume results, byte
	// counts, spill accounting and busy-vs-wall stage times.
	StreamResult = core.StreamResult
	// VolumeResult reports one volume's trip through the stream.
	VolumeResult = core.VolumeResult
	// VolumeHeader is the framed per-volume header (id, geometry, length,
	// checksum).
	VolumeHeader = codec.VolumeHeader
	// VolumeSimulator is a Simulator with deterministic per-volume noise.
	VolumeSimulator = core.VolumeSimulator
	// VolumeClusterer is a Clusterer with deterministic per-volume seeding.
	VolumeClusterer = core.VolumeClusterer
	// VolumeOutcome classifies one volume's decode: decoded, salvaged or
	// failed.
	VolumeOutcome = core.VolumeOutcome
	// VolumeWork is one volume's unit of decode work (reads + expectations).
	VolumeWork = core.VolumeWork
)

// Volume outcome constants.
const (
	// OutcomeDecoded marks a clean, fully verified volume decode.
	OutcomeDecoded = core.OutcomeDecoded
	// OutcomeSalvaged marks a best-effort decode with a damage map.
	OutcomeSalvaged = core.OutcomeSalvaged
	// OutcomeFailed marks a volume whose decode failed outright.
	OutcomeFailed = core.OutcomeFailed
)

// Crash-restartable distributed archive (internal/archive): a durable
// manifest written at encode time, plus independent worker processes that
// claim volumes through lease files, checkpoint per-volume progress, and may
// be killed and restarted at any point — the fleet converges to bytes
// identical to a single-process Pipeline.RunStream.
type (
	// Manifest is the durable archive catalog: codec geometry, seed
	// material, and per-volume offsets, lengths and checksums.
	Manifest = codec.Manifest
	// ManifestVolume is one volume's manifest entry.
	ManifestVolume = codec.ManifestVolume
	// ArchiveDir resolves the well-known paths inside an archive directory.
	ArchiveDir = archive.Dir
	// ArchiveWorkerOptions configures one archive decode worker.
	ArchiveWorkerOptions = archive.WorkerOptions
	// ArchiveWorkerResult summarizes one worker's contribution.
	ArchiveWorkerResult = archive.WorkerResult
	// ArchiveCheckpoint is a volume's durable commit record.
	ArchiveCheckpoint = archive.Checkpoint
	// ArchiveAuditReport verifies decode output against the manifest and
	// checkpoints.
	ArchiveAuditReport = archive.AuditReport
	// ArchiveHooks are chaos/test instrumentation points in the worker's
	// commit sequence.
	ArchiveHooks = archive.Hooks
)

// Archive functions re-exported from the archive package.
var (
	// BuildArchive encodes a stream into an archive directory: framed read
	// shards plus a manifest written last.
	BuildArchive = archive.Build
	// RunArchiveWorker decodes archive volumes until every volume has a
	// valid checkpoint; safe to run many times concurrently, in one process
	// or many.
	RunArchiveWorker = archive.RunWorker
	// AuditArchive verifies a decode output against the archive's manifest
	// and checkpoints.
	AuditArchive = archive.Audit
	// ReadManifest loads and validates an archive manifest.
	ReadManifest = codec.ReadManifest
	// ReadArchiveCheckpoint loads and validates one volume's commit record.
	ReadArchiveCheckpoint = archive.ReadCheckpoint
	// ErrCheckpointCorrupt marks a torn or damaged checkpoint file; workers
	// respond by redoing the volume, which is idempotent.
	ErrCheckpointCorrupt = archive.ErrCheckpointCorrupt
	// ErrManifest marks a damaged or inconsistent archive manifest.
	ErrManifest = codec.ErrManifest
	// ErrVolumeTruncated marks a volume frame cut short by a torn write or
	// truncated file tail.
	ErrVolumeTruncated = codec.ErrVolumeTruncated
)

// Typed sentinel errors of the fault-tolerant runtime, matchable with
// errors.Is against any error returned through this facade.
var (
	// ErrDecode marks every decoder failure (codec package).
	ErrDecode = codec.ErrDecode
	// ErrNotConfigured is returned by Pipeline.RunContext when a module is missing.
	ErrNotConfigured = core.ErrNotConfigured
	// ErrCancelled wraps aborts caused by context cancellation or deadlines
	// (the run context or RunOptions.StageTimeout); the underlying
	// context.Canceled / context.DeadlineExceeded stays matchable too.
	ErrCancelled = core.ErrCancelled
	// ErrStagePanic wraps a panic contained by the pipeline runtime.
	ErrStagePanic = core.ErrStagePanic
	// ErrRetriesExhausted wraps the final failure after RunOptions.Retries
	// escalation attempts all failed.
	ErrRetriesExhausted = core.ErrRetriesExhausted
	// ErrNoUsableClusters is returned when clustering left no cluster with
	// a read (a run with no reads, say): nothing to reconstruct.
	ErrNoUsableClusters = core.ErrNoUsableClusters
	// ErrVolumeDamaged is returned by Pipeline.RunStream (best effort off)
	// when some volumes could not be recovered; their output regions are
	// zero-filled and StreamResult.Volumes carries the per-volume errors.
	ErrVolumeDamaged = core.ErrVolumeDamaged
	// ErrVolumeHeader marks a volume frame that failed validation.
	ErrVolumeHeader = codec.ErrVolumeHeader
	// ErrVolumeChecksum marks a decoded volume whose payload CRC mismatched.
	ErrVolumeChecksum = codec.ErrVolumeChecksum
)

// Observability spine (internal/obs): per-stage atomic counters and stage
// lifecycle hooks shared by every pipeline entry point. Hand a Pipeline a
// MetricsRegistry (Pipeline.Metrics) and every RunContext / RunStream /
// archive worker publishes its per-stage counters into it; Snapshot() at any
// moment for a consistent JSON-ready view (the CLI's -metrics-json).
type (
	// MetricsRegistry collects named per-stage counters; safe for
	// concurrent use and long-lived accumulation across runs.
	MetricsRegistry = obs.Registry
	// MetricsStage is one stage's live counter set.
	MetricsStage = obs.Stage
	// MetricsSnapshot is a point-in-time copy of one stage's counters,
	// stable for JSON emission.
	MetricsSnapshot = obs.StageSnapshot
	// MetricsEvent is delivered to hooks at stage boundaries.
	MetricsEvent = obs.Event
	// MetricsEventKind distinguishes stage-begin from stage-end events.
	MetricsEventKind = obs.EventKind
	// MetricsHook observes stage events; chaos injection rides these.
	MetricsHook = obs.Hook
)

// Stage lifecycle event kinds.
const (
	// MetricsStageBegin fires before a stage's work function runs.
	MetricsStageBegin = obs.StageBegin
	// MetricsStageEnd fires after a stage's work function returns.
	MetricsStageEnd = obs.StageEnd
)

// NewMetricsRegistry creates an empty metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// Fault injection for resilience testing (internal/chaos).
type (
	// ChaosFaults configures the stage wrappers' deterministic faults. Whole
	// stages panic through ChaosPanicHook instead.
	ChaosFaults = chaos.Faults
	// ChaosSimulator wraps a Simulator with injected latency, read drops,
	// read truncation and index scrambling.
	ChaosSimulator = chaos.Simulator
	// ChaosClusterer wraps a Clusterer with injected latency.
	ChaosClusterer = chaos.Clusterer
	// ChaosReconstructor wraps a Reconstructor with injected latency.
	ChaosReconstructor = chaos.Reconstructor
	// ChaosChannel panics on one in every N transmissions, picked from each
	// transmission's own random stream, exercising the simulator worker
	// pool's per-strand salvage path.
	ChaosChannel = chaos.Channel
	// ChaosAlgorithm panics on one in every N reconstructed clusters, picked
	// by a hash of their reads, exercising the reconstruction worker pool's
	// per-cluster salvage path.
	ChaosAlgorithm = chaos.Algorithm
	// ChaosProcessKiller SIGKILLs the current process on the Nth strike —
	// wire it to ArchiveHooks.OutputWritten to die exactly mid-volume.
	ChaosProcessKiller = chaos.ProcessKiller
	// ChaosTornCheckpoints tears the first N checkpoint writes at a seeded
	// random byte offset, simulating crash-torn commit records.
	ChaosTornCheckpoints = chaos.TornCheckpoints
)

// ChaosPanicHook returns a MetricsHook that panics on every everyN'th entry
// into the named stage — fault injection riding the observability spine, so
// it reaches stages that have no chaos wrapper (encode, decode, demux). The
// runtime contains it as ErrStagePanic carrying the stage name.
var ChaosPanicHook = chaos.PanicHook

// NewPipeline assembles a pipeline with default module adapters.
func NewPipeline(c *Codec, simOpts SimOptions, clusterOpts ClusterOptions, algo Reconstruction) *Pipeline {
	return core.New(c, simOpts, clusterOpts, algo)
}

// Wetlab data handling (§VIII).
type (
	// FASTQRecord is one sequencer read record.
	FASTQRecord = fastq.Record
	// FASTQStats summarizes a preprocessing run.
	FASTQStats = fastq.Stats
)

// FASTQ functions re-exported from the fastq package.
var (
	// ParseFASTQ reads FASTQ records.
	ParseFASTQ = fastq.Parse
	// WriteFASTQ emits FASTQ records.
	WriteFASTQ = fastq.Write
	// PreprocessFASTQ orients reads and trims primers for clustering.
	PreprocessFASTQ = fastq.Preprocess
	// FilterFASTQByQuality drops records below a mean Phred score.
	FilterFASTQByQuality = fastq.FilterByQuality
)

// SimReadsToFASTQ renders simulated reads as FASTQ records (flat quality),
// bridging the simulator output into the §VIII wetlab-data path.
func SimReadsToFASTQ(reads []SimRead, idPrefix string) []FASTQRecord {
	return fastq.FromReads(sim.Sequences(reads), idPrefix)
}

// Key-value pool with PCR random access (§II-F).
type (
	// Pool is a simulated test tube holding many files' molecules.
	Pool = pool.Pool
	// PCROptions parametrizes amplification + sequencing of one file.
	PCROptions = pool.PCROptions
)
