package cluster

import (
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

func TestShardedMatchesSingleNodeAccuracy(t *testing.T) {
	reads, origins := makePool(t, 51, 150, 110, 8, 0.06)
	single := mustCluster(t, reads, Options{Seed: 52})
	sharded := mustSharded(t, reads, 4, Options{Seed: 52})
	accSingle := Accuracy(single.Clusters, origins, 0.9, 150)
	accSharded := Accuracy(sharded.Clusters, origins, 0.9, 150)
	if accSharded < accSingle-0.08 {
		t.Fatalf("sharded accuracy %v far below single-node %v", accSharded, accSingle)
	}
	if accSharded < 0.85 {
		t.Fatalf("sharded accuracy %v", accSharded)
	}
}

func TestShardedCoversAllReadsOnce(t *testing.T) {
	reads, _ := makePool(t, 53, 60, 100, 6, 0.06)
	res := mustSharded(t, reads, 3, Options{Seed: 54})
	seen := make([]bool, len(reads))
	for _, c := range res.Clusters {
		for _, r := range c {
			if seen[r] {
				t.Fatalf("read %d appears twice", r)
			}
			seen[r] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("read %d missing", i)
		}
	}
}

func TestShardedDegeneratesToSingle(t *testing.T) {
	reads, _ := makePool(t, 55, 20, 100, 4, 0.03)
	a := mustSharded(t, reads, 1, Options{Seed: 56})
	b := mustCluster(t, reads, Options{Seed: 56})
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("shards=1 gave %d clusters, single gave %d", len(a.Clusters), len(b.Clusters))
	}
}

func TestShardedDeterministic(t *testing.T) {
	reads, _ := makePool(t, 57, 80, 100, 6, 0.06)
	a := mustSharded(t, reads, 4, Options{Seed: 58})
	b := mustSharded(t, reads, 4, Options{Seed: 58})
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a.Clusters {
		if len(a.Clusters[i]) != len(b.Clusters[i]) {
			t.Fatalf("cluster %d differs", i)
		}
		for j := range a.Clusters[i] {
			if a.Clusters[i][j] != b.Clusters[i][j] {
				t.Fatalf("cluster %d member %d differs", i, j)
			}
		}
	}
}

func TestShardedPurity(t *testing.T) {
	reads, origins := makePool(t, 59, 100, 110, 8, 0.09)
	res := mustSharded(t, reads, 4, Options{Seed: 60})
	if p := Purity(res.Clusters, origins); p < 0.99 {
		t.Fatalf("sharded purity %v", p)
	}
}

// TestShardedCountsMetaRoundCheapMerges covers a pool whose every merge
// happens in the representative-level meta round: round-robin gives each of
// three shards one copy of each of two strands, so no shard merges anything.
// The meta round's cheap merges must reach Stats like its other counters.
func TestShardedCountsMetaRoundCheapMerges(t *testing.T) {
	rng := xrand.New(61)
	a, b := dna.Random(rng, 110), dna.Random(rng, 110)
	reads := []dna.Seq{a, a, a, b, b, b}
	opts := Options{Seed: 9, ThetaLow: 3, ThetaHigh: 20, EditThreshold: 10}
	res := mustSharded(t, reads, 3, opts)
	if len(res.Clusters) != 2 || res.Stats.Merges != 4 {
		t.Fatalf("got %d clusters and %d merges, want 2 and 4", len(res.Clusters), res.Stats.Merges)
	}
	// Identical reads sit at signature distance 0, within ThetaLow, so every
	// merge decision is cheap: ClusterContext on the same reads counts 6 as well.
	if res.Stats.CheapMerges != 6 {
		t.Fatalf("CheapMerges = %d, want the meta round's 6", res.Stats.CheapMerges)
	}
}

// TestShardedStatsSumShardAndMetaRuns pins ShardedContext's work counters
// to the ClusterContext runs it is made of: each shard's and the meta
// round's, recomputed here from the same derived seeds, in both modes.
func TestShardedStatsSumShardAndMetaRuns(t *testing.T) {
	const shards = 4
	reads, _ := makePool(t, 61, 250, 128, 10, 0.06)
	for _, mode := range []SignatureMode{QGram, WGram} {
		opts := Options{Mode: mode, Seed: 52, Workers: 2}
		got := mustSharded(t, reads, shards, opts).Stats
		var want Stats
		var reps []dna.Seq
		for s := 0; s < shards; s++ {
			var shardReads []dna.Seq
			for i := s; i < len(reads); i += shards {
				shardReads = append(shardReads, reads[i])
			}
			so := opts
			so.Seed = xrand.Derive(opts.Seed, uint64(s)).Uint64()
			res := mustCluster(t, shardReads, so)
			want.Add(res.Stats)
			for _, c := range res.Clusters {
				reps = append(reps, shardReads[c[0]])
			}
		}
		mo := opts
		mo.Seed = xrand.Derive(opts.Seed, 0x5ecd).Uint64()
		want.Add(mustCluster(t, reps, mo).Stats)
		if want.SweepRecomputes == 0 {
			t.Fatalf("mode %v: the shard and meta runs made no sweep recomputes", mode)
		}
		if got.EditDistanceCalls != want.EditDistanceCalls || got.Merges != want.Merges ||
			got.CheapMerges != want.CheapMerges || got.SweepRecomputes != want.SweepRecomputes {
			t.Errorf("mode %v: sharded edit calls, merges, cheap merges, recomputes = %d, %d, %d, %d; shard and meta runs sum to %d, %d, %d, %d",
				mode, got.EditDistanceCalls, got.Merges, got.CheapMerges, got.SweepRecomputes,
				want.EditDistanceCalls, want.Merges, want.CheapMerges, want.SweepRecomputes)
		}
	}
}
