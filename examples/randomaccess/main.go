// Randomaccess demonstrates the key-value architecture of §II-F: several
// files share one DNA pool, each addressed by its own PCR primer pair. One
// file is retrieved by PCR amplification — molecules of the other files are
// barely amplified and the few leaked reads are rejected by the primer
// matching of the wetlab-data path — and decoded without touching the rest
// of the pool.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"dnastore"
	"dnastore/internal/core"
	"dnastore/internal/pool"
)

func main() {
	// One primer pair per file: the file's "key" in the pool.
	pairs, err := dnastore.DesignPrimers(17, 3, dnastore.PrimerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	files := map[string][]byte{
		"report.txt": []byte("quarterly report: DNA archival pilot exceeded durability targets"),
		"genome.fa":  bytes.Repeat([]byte("ACGT metadata and annotations... "), 8),
		"notes.md":   []byte("meeting notes: primers are keys, payload molecules are values"),
	}

	var tube pool.Pool
	names := []string{"report.txt", "genome.fa", "notes.md"}
	for i, name := range names {
		codec, err := dnastore.NewCodec(dnastore.CodecParams{
			N: 30, K: 20, PayloadBytes: 15, Seed: 21, Primers: &pairs[i],
		})
		if err != nil {
			log.Fatal(err)
		}
		strands, err := codec.EncodeFile(files[name])
		if err != nil {
			log.Fatal(err)
		}
		if err := tube.Store(name, pairs[i], strands); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stored %-10s as %d molecules (primer key %s...)\n",
			name, len(strands), pairs[i].Forward[:8])
	}

	// Random access: PCR-amplify only notes.md and sequence.
	target := "notes.md"
	key, err := tube.Primers(target)
	if err != nil {
		log.Fatal(err)
	}
	reads, err := tube.AccessContext(context.Background(), key, pool.PCROptions{
		Channel:  dnastore.CalibratedIID(0.04),
		Coverage: 12,
		Seed:     23,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPCR amplification of %s returned %d reads from the shared pool\n", target, len(reads))

	// Wetlab-data path: orient, trim, reject contamination from other files.
	records := dnastore.SimReadsToFASTQ(reads, "pcr")
	inner, stats := dnastore.PreprocessFASTQ(records, key, 3)
	fmt.Printf("preprocess kept %d reads (%d contamination/unmatched rejected)\n",
		stats.Kept, stats.UnmatchedPrimers+stats.TrimFailures+stats.InvalidBases)

	decCodec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 30, K: 20, PayloadBytes: 15, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	pipe := &dnastore.Pipeline{
		Codec:         decCodec,
		Simulator:     dnastore.ReadsSource{Reads: inner},
		Clusterer:     core.OptionsClusterer{Options: dnastore.ClusterOptions{Seed: 25}},
		Reconstructor: core.AlgorithmReconstructor{Algorithm: dnastore.NWReconstruction{}},
	}
	res, err := pipe.RunContext(context.Background(), nil, dnastore.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if bytes.Equal(res.Data, files[target]) {
		fmt.Printf("\n%s recovered EXACTLY via random access: %q\n", target, res.Data)
	} else {
		fmt.Println("random access FAILED")
	}
}
