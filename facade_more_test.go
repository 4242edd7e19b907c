package dnastore_test

import (
	"context"
	"testing"

	"dnastore"
)

// TestFacadeShardedClustering exercises the distributed clustering variant
// through the public API.
func TestFacadeShardedClustering(t *testing.T) {
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 24, K: 16, PayloadBytes: 12, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	strands, err := codec.EncodeFile(make([]byte, 800))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reads, err := dnastore.SimulatePool(ctx, strands, dnastore.SimOptions{
		Channel:  dnastore.CalibratedIID(0.05),
		Coverage: dnastore.FixedCoverage(8),
		Seed:     62,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dnastore.Seq, len(reads))
	origins := make([]int, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
		origins[i] = r.Origin
	}
	res, err := dnastore.ShardedClusterReads(ctx, seqs, 3, dnastore.ClusterOptions{Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	if acc := dnastore.ClusteringAccuracy(res.Clusters, origins, 0.9, len(strands)); acc < 0.85 {
		t.Fatalf("sharded accuracy %v via facade", acc)
	}
	if p := dnastore.ClusteringPurity(res.Clusters, origins); p < 0.99 {
		t.Fatalf("sharded purity %v via facade", p)
	}
}

// TestFacadeQualityFilter exercises the FASTQ quality filter re-export.
func TestFacadeQualityFilter(t *testing.T) {
	records := []dnastore.FASTQRecord{
		{ID: "hi", Seq: "ACGT", Quality: "IIII"},
		{ID: "lo", Seq: "ACGT", Quality: "!!!!"},
	}
	kept, dropped := dnastore.FilterFASTQByQuality(records, 20)
	if len(kept) != 1 || dropped != 1 || kept[0].ID != "hi" {
		t.Fatalf("kept %v dropped %d", kept, dropped)
	}
}

// TestFacadePool exercises the key-value pool aliases.
func TestFacadePool(t *testing.T) {
	pairs, err := dnastore.DesignPrimers(64, 1, dnastore.PrimerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var p dnastore.Pool
	if err := p.Store("f", pairs[0], nil); err != nil {
		t.Fatal(err)
	}
	if files := p.Files(); len(files) != 1 || files[0] != "f" {
		t.Fatalf("files = %v", files)
	}
}
