package dnastore_test

import (
	"bytes"
	"context"
	"testing"

	"dnastore"
)

// TestFacadeRoundTrip exercises the package-level API exactly as the README
// quickstart shows it.
func TestFacadeRoundTrip(t *testing.T) {
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 30, K: 20, PayloadBytes: 30, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := dnastore.NewPipeline(codec,
		dnastore.SimOptions{
			Channel:  dnastore.CalibratedIID(0.06),
			Coverage: dnastore.FixedCoverage(10),
			Seed:     1,
		},
		dnastore.ClusterOptions{Seed: 2},
		dnastore.NWReconstruction{})
	data := []byte("hello, molecular archive")
	res, err := pipe.RunContext(context.Background(), data, dnastore.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("round trip failed: report %v", res.Report)
	}
}

func TestFacadeGiniAndPrimers(t *testing.T) {
	pairs, err := dnastore.DesignPrimers(3, 1, dnastore.PrimerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 24, K: 16, PayloadBytes: 20, Seed: 5,
		Layout:  dnastore.Gini{},
		Primers: &pairs[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("gini layout with primers through the facade")
	strands, err := codec.EncodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := codec.DecodeFileContext(context.Background(), strands, dnastore.DecodeOptions{})
	if err != nil || !rep.Clean() || !bytes.Equal(got, data) {
		t.Fatalf("facade gini round trip failed: %v %v", rep, err)
	}
}

func TestFacadeSeqHelpers(t *testing.T) {
	s, err := dnastore.ParseSeq("ACGT")
	if err != nil {
		t.Fatal(err)
	}
	if s.ReverseComplement().String() != "ACGT" {
		t.Fatalf("revcomp of ACGT should be ACGT, got %s", s.ReverseComplement())
	}
	if dnastore.MustParseSeq("AATT").GCContent() != 0 {
		t.Fatal("GC content")
	}
}
