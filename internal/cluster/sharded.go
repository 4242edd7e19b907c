package cluster

import (
	"context"
	"sort"

	"dnastore/internal/dna"
	"dnastore/internal/exec"
	"dnastore/internal/xrand"
)

// ShardedContext runs the clustering algorithm in the distributed setting
// described by Rashtchian et al. (§VI-A: "the algorithm ... [must] be
// distributed to efficiently utilize all the resources available"): reads
// are split across independent shards (emulating machines), each shard
// clusters its slice with the normal multi-round algorithm, and a final
// representative-level round merges fragments of the same strand that
// landed on different shards. Within one process the shards run
// concurrently; the structure is exactly what a multi-machine deployment
// would use, with the representative exchange as the only communication
// step.
//
// Cancelling ctx returns the context's error, and Options ClusterContext
// would reject return ErrOptions before any shard starts. A shard whose
// clustering panics is salvaged: its reads fall back to singleton clusters,
// which the representative-level merge round can still attach to surviving
// shards' clusters — the distributed analogue of treating a failed
// machine's partial work as lost but its input as recoverable.
func ShardedContext(ctx context.Context, reads []dna.Seq, shards int, opts Options) (Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if shards <= 1 || len(reads) < 2*shards {
		return ClusterContext(ctx, reads, opts)
	}

	// Deterministic round-robin assignment (a real deployment hashes read
	// IDs; origins are unknown either way, so fragments are expected).
	shardReads := make([][]dna.Seq, shards)
	shardIndex := make([][]int, shards)
	for i, r := range reads {
		s := i % shards
		shardReads[s] = append(shardReads[s], r)
		shardIndex[s] = append(shardIndex[s], i)
	}

	// Phase 1: independent per-shard clustering.
	shardResults := make([]Result, shards)
	exec.ParallelFor(ctx, shards, shards, func(s int) {
		shardOpts := opts
		shardOpts.Seed = xrand.Derive(o.Seed, uint64(s)).Uint64()
		// Shards emulate separate machines; each keeps its own workers.
		shardOpts.Workers = (o.Workers + shards - 1) / shards
		//dnalint:allow errflow -- the options were validated above, so cancellation is the only error left; it is re-checked via context.Cause after the parallel-for, which discards a cancelled shard's partial result
		shardResults[s], _ = ClusterContext(ctx, shardReads[s], shardOpts)
	})
	if err := context.Cause(ctx); err != nil {
		return Result{}, err
	}
	// A shard that completed holds at least two reads and so returned
	// clusters; nil Clusters means its clustering panicked. Salvage it as
	// singletons, which the meta round gets a chance to re-attach.
	for s, res := range shardResults {
		if res.Clusters == nil {
			singles := make([][]int, len(shardReads[s]))
			for i := range singles {
				singles[i] = []int{i}
			}
			shardResults[s] = Result{Clusters: singles}
		}
	}

	// Phase 2: cluster the shard-cluster representatives globally.
	var reps []dna.Seq
	var repHome [][]int // global read indices of each shard-cluster
	var stats Stats
	for s, res := range shardResults {
		st := res.Stats
		stats.EditDistanceCalls += st.EditDistanceCalls
		stats.Merges += st.Merges
		stats.CheapMerges += st.CheapMerges
		stats.SweepRecomputes += st.SweepRecomputes
		if st.SignatureTime > stats.SignatureTime {
			stats.SignatureTime = st.SignatureTime // parallel: max, not sum
		}
		if st.ClusterTime > stats.ClusterTime {
			stats.ClusterTime = st.ClusterTime
		}
		for _, members := range res.Clusters {
			global := make([]int, len(members))
			for i, m := range members {
				global[i] = shardIndex[s][m]
			}
			reps = append(reps, shardReads[s][members[0]])
			repHome = append(repHome, global)
		}
	}
	metaOpts := opts
	metaOpts.Seed = xrand.Derive(o.Seed, 0x5ecd).Uint64()
	meta, err := ClusterContext(ctx, reps, metaOpts)
	if err != nil {
		return Result{}, err
	}
	stats.EditDistanceCalls += meta.Stats.EditDistanceCalls
	stats.Merges += meta.Stats.Merges
	stats.CheapMerges += meta.Stats.CheapMerges
	stats.SweepRecomputes += meta.Stats.SweepRecomputes
	stats.SignatureTime += meta.Stats.SignatureTime
	stats.ClusterTime += meta.Stats.ClusterTime
	stats.Rounds = meta.Stats.Rounds
	stats.ThetaLow, stats.ThetaHigh = meta.Stats.ThetaLow, meta.Stats.ThetaHigh

	out := make([][]int, 0, len(meta.Clusters))
	for _, group := range meta.Clusters {
		if ctx.Err() != nil {
			return Result{Stats: stats}, context.Cause(ctx)
		}
		var merged []int
		for _, repIdx := range group {
			merged = append(merged, repHome[repIdx]...)
		}
		sort.Ints(merged)
		out = append(out, merged)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return Result{Clusters: out, Stats: stats}, nil
}
