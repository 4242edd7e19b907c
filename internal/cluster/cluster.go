// Package cluster implements the clustering module of the pipeline (§VI):
// grouping noisy sequenced reads so that, ideally, each cluster holds all
// reads of one originally encoded strand. It follows the distributed
// algorithm of Rashtchian et al. (NeurIPS'17): reads start as singleton
// clusters; each round partitions clusters by a random anchor hash, compares
// cheap gram signatures of representatives within each partition, and merges
// clusters whose representatives are close — confirming with a (banded)
// edit-distance computation only when the signature distance falls between
// two thresholds. The thresholds can be tuned automatically (§VI-B, Fig. 5).
//
// Two signature schemes are provided: the baseline q-gram presence bits with
// Hamming distance, and the paper's w-gram first-occurrence positions with
// the L1 norm (§VI-C).
//
// Rounds are parallelized over partitions. Merge decisions are computed
// independently of merge application, so results are deterministic for a
// given seed regardless of GOMAXPROCS.
//
// The round loop and the straggler sweep run on one allocation-free
// implementation (roundstate.go, sigbits.go, sweepindex.go). The map-based
// loops it replaced survive in the package tests as its oracle: the
// fixed-seed identity tests hold the two to bit-identical clusters and Stats
// counters for every seed and worker count.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

// Options configures ClusterContext. Zero values select the defaults given
// below.
type Options struct {
	// Mode selects q-gram (default) or w-gram signatures.
	Mode SignatureMode
	// GramLen is the gram length q (default 4). Values outside
	// [0, maxRollingQ] are rejected with ErrOptions: the signature kernels
	// index grams with a 4^q head table.
	GramLen int
	// Rounds is the number of clustering rounds, each with a fresh anchor
	// and fresh grams (default 24).
	Rounds int
	// ThetaLow and ThetaHigh are the signature-distance thresholds: below
	// ThetaLow clusters merge outright; above ThetaHigh they never merge;
	// in between an edit-distance confirmation runs. Both zero (the
	// default) enables automatic configuration (§VI-B).
	ThetaLow, ThetaHigh int
	// EditThreshold is the maximum edit distance between representatives
	// for a confirmed merge. The default (0) configures it automatically
	// from sampled read pairs: midway between the same-strand and
	// different-strand edit-distance modes (§VI-B applied to the
	// confirmation step). Reads of a common origin at error rate p differ
	// by ≈2p·L edits while unrelated randomized strands sit near 0.55·L.
	EditThreshold int
	// NoStragglerSweep disables the final pass in which very small
	// clusters are edit-checked against their nearest cluster
	// representatives (by signature distance) without anchor partitioning.
	// The sweep rescues the worst-quality reads that never co-partition
	// with their cluster; disable it to measure the bare multi-round
	// algorithm.
	NoStragglerSweep bool
	// Workers bounds the worker goroutines (<= 0: GOMAXPROCS).
	Workers int
	// Seed drives all randomness.
	Seed uint64

	// engine, when non-nil, builds the round and sweep engine in place of
	// the fast path's roundRunner. Only package tests set it, to run the
	// map-based reference oracle through the same driver; ShardedContext
	// copies Options to every shard and to the meta round, so it reaches
	// those too.
	engine engineMaker
}

// Fixed parameters of the algorithm (§VI-A).
const (
	// numGrams is the number of random grams per round signature; the
	// straggler sweep uses three times as many.
	numGrams = 48
	// anchorLen is the anchor length k used for partitioning.
	anchorLen = 3
	// partitionLen is the number of bases l following the anchor that form
	// the partition key.
	partitionLen = 6
	// maxPartitionPairs caps the pairwise comparisons within one partition;
	// huge partitions are subsampled.
	maxPartitionPairs = 50000
	// sweepCandidates is the floor of the number of nearest representatives
	// the sweep edit-checks per straggler (banded edit distance keeps each
	// check cheap, and only stragglers pay it).
	sweepCandidates = 32
)

// ErrOptions marks Options that ClusterContext and ShardedContext cannot
// run.
var ErrOptions = errors.New("cluster: invalid options")

// withDefaults validates o and fills in its defaults.
func (o Options) withDefaults() (Options, error) {
	if o.GramLen < 0 || o.GramLen > maxRollingQ {
		return o, fmt.Errorf("%w: GramLen %d outside [0, %d]", ErrOptions, o.GramLen, maxRollingQ)
	}
	if o.GramLen == 0 {
		o.GramLen = 4
	}
	if o.Rounds == 0 {
		o.Rounds = 24
	}
	// EditThreshold == 0 is resolved from the data inside ClusterContext
	// (see autoEditThreshold); it cannot be fixed here because it needs
	// reads.
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// roundEngine runs the clustering rounds and straggler-sweep passes of one
// ClusterContext call, mutating its union-find and Stats.
type roundEngine interface {
	runRound(rng *xrand.RNG, round int)
	runSweepPass(pass uint64) int
}

// engineMaker builds the roundEngine for one ClusterContext call.
type engineMaker interface {
	newEngine(ctx context.Context, reads []dna.Seq, uf *unionFind, o Options, thetaLow, thetaHigh int, editScr []edit.Scratch, stats *Stats) roundEngine
}

// Stats reports the work a clustering run performed, split the way the
// paper's Table II reports it.
type Stats struct {
	Rounds            int
	EditDistanceCalls int
	Merges            int
	CheapMerges       int // merges decided by signature distance alone
	// SweepRecomputes counts the straggler sweep's exact mean-signature
	// distances: the candidates its screen could not place in or out of the
	// edit-checked list, plus the ties at the winning edit distance. It does
	// not depend on the worker count.
	SweepRecomputes int
	SignatureTime   time.Duration
	ClusterTime     time.Duration // total minus signature computation
	ThetaLow        int
	ThetaHigh       int
	// Spilled counts reads the streaming demux could not route to any volume
	// (index prefix corrupt, out of range, or read shorter than the prefix).
	// Spilled reads are excluded from clustering but never silently dropped:
	// this counter is the audit trail. Always 0 in batch runs.
	Spilled int
}

// Add accumulates o's counters into s. Time fields sum (busy time across
// shards or volumes); the theta thresholds keep the widest observed range,
// since a merged report cannot represent one threshold per sub-run.
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.EditDistanceCalls += o.EditDistanceCalls
	s.Merges += o.Merges
	s.CheapMerges += o.CheapMerges
	s.SweepRecomputes += o.SweepRecomputes
	s.SignatureTime += o.SignatureTime
	s.ClusterTime += o.ClusterTime
	s.Spilled += o.Spilled
	if s.ThetaLow == 0 || (o.ThetaLow != 0 && o.ThetaLow < s.ThetaLow) {
		s.ThetaLow = o.ThetaLow
	}
	if o.ThetaHigh > s.ThetaHigh {
		s.ThetaHigh = o.ThetaHigh
	}
}

// Result is the output of ClusterContext.
type Result struct {
	// Clusters holds read indices (into the input slice), one slice per
	// cluster, each sorted ascending. Cluster order is deterministic.
	Clusters [][]int
	Stats    Stats
}

// unionFind is a standard weighted union-find over read indices.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}

// ClusterContext groups reads into clusters of (putatively) common origin.
// The round loop, the per-partition workers and the straggler sweep all
// check ctx, and the call returns the context's error (with whatever Stats
// had accumulated) when it is cancelled or its deadline passes. Options it
// cannot run make it return an error matching ErrOptions.
func ClusterContext(ctx context.Context, reads []dna.Seq, opts Options) (Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if len(reads) == 0 {
		return Result{}, context.Cause(ctx)
	}
	readLen := 0
	for _, r := range reads {
		if len(r) > readLen {
			readLen = len(r)
		}
	}
	rng := xrand.New(o.Seed)
	uf := newUnionFind(len(reads))
	var stats Stats
	stats.Rounds = o.Rounds

	// Automatic threshold configuration (§VI-B) unless the user fixed both.
	thetaLow, thetaHigh := o.ThetaLow, o.ThetaHigh
	if thetaLow == 0 && thetaHigh == 0 {
		thetaLow, thetaHigh, _, err = AutoThresholdsContext(ctx, reads, o)
	}
	stats.ThetaLow, stats.ThetaHigh = thetaLow, thetaHigh
	if err != nil {
		return Result{Stats: stats}, err
	}
	if o.EditThreshold == 0 {
		o.EditThreshold = autoEditThreshold(reads, readLen, xrand.Derive(o.Seed, 0xc0f3))
	}

	// Per-worker edit-distance scratch, reused across all rounds and sweep
	// passes. Worker w is the only goroutine touching slot w (see
	// exec.ParallelForW), so no locking is needed.
	editScr := make([]edit.Scratch, o.Workers)
	var eng roundEngine
	if o.engine != nil {
		eng = o.engine.newEngine(ctx, reads, uf, o, thetaLow, thetaHigh, editScr, &stats)
	} else {
		eng = newRoundRunner(ctx, reads, uf, o, thetaLow, thetaHigh, editScr, &stats)
	}

	for round := 0; round < o.Rounds; round++ {
		if err := context.Cause(ctx); err != nil {
			return Result{Stats: stats}, err
		}
		eng.runRound(rng, round)
	}

	if !o.NoStragglerSweep {
		sweepStart := time.Now() //dnalint:allow determinism -- Stats timing telemetry; never feeds a clustering decision
		// Iterate to a fixpoint (bounded): early passes merge singletons
		// into fragments; as the median cluster size grows, later passes
		// recognize mid-size fragments as stragglers and attach them too.
		// Each pass draws fresh grams so a straggler whose signature ranked
		// poorly under one gram set gets an independent second chance.
		for pass := 0; pass < 4; pass++ {
			if err := context.Cause(ctx); err != nil {
				stats.ClusterTime += time.Since(sweepStart)
				return Result{Stats: stats}, err
			}
			if eng.runSweepPass(uint64(pass)) == 0 {
				break
			}
		}
		stats.ClusterTime += time.Since(sweepStart)
	}
	if err := context.Cause(ctx); err != nil {
		return Result{Stats: stats}, err
	}

	// Gather final clusters deterministically: order by smallest member.
	groups := map[int][]int{}
	for i := range reads {
		if i&0xfff == 0 {
			if err := context.Cause(ctx); err != nil {
				return Result{Stats: stats}, err
			}
		}
		root := uf.find(i)
		groups[root] = append(groups[root], i)
	}
	out := make([][]int, 0, len(groups))
	for _, ms := range groups {
		out = append(out, ms) // members already ascend (i loop order)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return Result{Clusters: out, Stats: stats}, nil
}
