package dnastore_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"dnastore"
)

// Example shows the minimal end-to-end round trip: a file becomes DNA
// strands, survives a simulated wetlab, and is decoded back.
func Example() {
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 30, K: 20, PayloadBytes: 15, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	pipe := dnastore.NewPipeline(codec,
		dnastore.SimOptions{
			Channel:  dnastore.CalibratedIID(0.05),
			Coverage: dnastore.FixedCoverage(10),
			Seed:     1,
		},
		dnastore.ClusterOptions{Seed: 2},
		dnastore.NWReconstruction{})
	data := []byte("hello, DNA")
	res, err := pipe.RunContext(context.Background(), data, dnastore.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bytes.Equal(res.Data, data))
	// Output: true
}

// ExamplePipeline_RunContext shows the fault-tolerance controls: a deadline
// per stage, retries that re-run reconstruction and decode under a rising
// cluster-size floor, and best-effort salvage with a damage map.
func ExamplePipeline_RunContext() {
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 30, K: 20, PayloadBytes: 15, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	pipe := dnastore.NewPipeline(codec,
		dnastore.SimOptions{
			Channel:  dnastore.CalibratedIID(0.05),
			Coverage: dnastore.FixedCoverage(10),
			Seed:     1,
		},
		dnastore.ClusterOptions{Seed: 2},
		dnastore.DoubleSidedBMAReconstruction{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	data := []byte("fault-tolerant DNA storage")
	res, err := pipe.RunContext(ctx, data, dnastore.RunOptions{
		StageTimeout: 2 * time.Minute,
		Retries:      2,
		BestEffort:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Report.Partial {
		fmt.Println("partial recovery; damaged units:", res.Report.DamagedUnits())
	}
	fmt.Println(bytes.Equal(res.Data, data), res.Attempts)
	// Output: true 1
}

// ExampleCodec_EncodeFile shows direct use of the encoding module: the
// strands carry an index and a scrambled payload and can be inspected or
// fed to any simulator.
func ExampleCodec_EncodeFile() {
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 24, K: 16, PayloadBytes: 10, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	strands, err := codec.EncodeFile([]byte("payload"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(strands), len(strands[0]))
	// Output: 24 48
}

// ExampleDesignPrimers shows primer design: pairs are chemically
// well-behaved and mutually distant so PCR can address files individually.
func ExampleDesignPrimers() {
	pairs, err := dnastore.DesignPrimers(3, 2, dnastore.PrimerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(pairs), len(pairs[0].Forward))
	// Output: 2 20
}

// ExampleTrainProfile shows training the data-driven wetlab simulator from
// paired clean/noisy reads and using it as a drop-in channel.
func ExampleTrainProfile() {
	ref := dnastore.NewReferenceWetlab()
	clean := []dnastore.Seq{
		dnastore.MustParseSeq("ACGTTGCAACGTAGGTTCCAACGGTTAACCGGTTAACCGG"),
		dnastore.MustParseSeq("TTGGCCAATTGGCCAATTGGACGTACGTACGTACGTACGT"),
	}
	pairs := dnastore.GeneratePairs(5, ref, clean, 10)
	model := dnastore.TrainProfile(pairs, 8)
	fmt.Println(model.Name(), model.Buckets())
	// Output: learned-profile 8
}
