// Quickstart: take a file through the entire DNA storage pipeline — encode
// into DNA strands, simulate the wetlab (synthesis, storage, sequencing),
// cluster the noisy reads, reconstruct the strands, and decode the file —
// using only the public dnastore facade.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"dnastore"
)

func main() {
	// The payload: any binary data works; this is what we want to store.
	data := []byte(`DNA offers extreme density and durability as a storage
medium: this text is about to become a pool of simulated DNA molecules and
come back intact through clustering, trace reconstruction and Reed-Solomon
error correction.`)

	// Codec: each encoding unit is a matrix of 60 molecules (columns), 40
	// carrying data and 20 Reed-Solomon parity; each molecule stores 30
	// payload bytes = 120 nt, the setting used in the paper's Table III.
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 60, K: 40, PayloadBytes: 30, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Pipeline: 6% aggregate error, 10 reads per strand (the Table III
	// setting), q-gram clustering with automatic thresholds, and the
	// paper's Needleman-Wunsch reconstruction.
	pipe := dnastore.NewPipeline(codec,
		dnastore.SimOptions{
			Channel:  dnastore.CalibratedIID(0.06),
			Coverage: dnastore.FixedCoverage(10),
			Seed:     1,
		},
		dnastore.ClusterOptions{Seed: 2},
		dnastore.NWReconstruction{})

	res, err := pipe.RunContext(context.Background(), data, dnastore.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("stored %d bytes as %d DNA strands of %d nt\n",
		len(data), res.Strands, codec.StrandLen())
	fmt.Printf("sequenced %d noisy reads -> %d clusters\n", res.Reads, res.Clusters)
	fmt.Printf("decode report: %v\n", res.Report)
	fmt.Print("latency:")
	for i, s := range res.Stages {
		if i > 0 {
			fmt.Print(" |")
		}
		fmt.Printf(" %s %v", s.Stage, time.Duration(s.BusyNanos))
	}
	fmt.Println()

	if bytes.Equal(res.Data, data) {
		fmt.Println("file recovered EXACTLY")
	} else {
		fmt.Println("file CORRUPTED")
	}
}
