// Wetlabreplay demonstrates §VIII of the paper: handling real sequenced
// data instead of simulator output. A file is encoded with PCR primers
// attached, "sequenced" into a FASTQ file whose reads arrive in both 5'→3'
// and 3'→5' orientations (as they do from Illumina/Nanopore machines), and
// then recovered by the wetlab-data path: parse FASTQ, identify and fix the
// orientation via the primer library, trim the primers, and feed only the
// payload region to clustering, reconstruction and decoding.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dnastore"
	"dnastore/internal/core"
)

func main() {
	// Design a primer pair for the file; the pair is the file's PCR
	// address in the pool.
	pairs, err := dnastore.DesignPrimers(11, 1, dnastore.PrimerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	pair := pairs[0]
	fmt.Printf("primers: 5'-%s ... %s-3'\n", pair.Forward, pair.Reverse)

	// Encode with primers attached to every molecule.
	encCodec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 60, K: 40, PayloadBytes: 25, Seed: 3, Primers: &pair,
	})
	if err != nil {
		log.Fatal(err)
	}
	data := []byte("wetlab replay: this file came back from a (simulated) sequencer " +
		"as a FASTQ of mixed-orientation noisy reads and was still recovered.")
	strands, err := encCodec.EncodeFile(data)
	if err != nil {
		log.Fatal(err)
	}

	// "Sequence" the pool: noisy reads, skewed coverage, mixed orientation.
	reads, err := dnastore.SimulatePool(context.Background(), strands, dnastore.SimOptions{
		Channel:  dnastore.CalibratedIID(0.04),
		Coverage: dnastore.SkewedCoverage{Mean: 12, Sigma: 0.4},
		Seed:     5,
	})
	if err != nil {
		log.Fatal(err)
	}
	seqs := make([]dnastore.Seq, len(reads))
	for i, r := range reads {
		if i%2 == 0 { // half the reads come off the reverse strand
			seqs[i] = r.Seq.ReverseComplement()
		} else {
			seqs[i] = r.Seq
		}
	}

	// Write and re-read the FASTQ file, exactly as a sequencing run would
	// hand it to us.
	dir, err := os.MkdirTemp("", "wetlabreplay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir) //dnalint:allow errflow -- best-effort temp-dir cleanup on exit
	path := filepath.Join(dir, "run.fastq")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	records := make([]dnastore.FASTQRecord, len(seqs))
	for i, s := range seqs {
		str := s.String()
		records[i] = dnastore.FASTQRecord{
			ID:      fmt.Sprintf("nanopore_read_%d", i),
			Seq:     str,
			Quality: string(bytes.Repeat([]byte{'I'}, len(str))),
		}
	}
	if err := dnastore.WriteFASTQ(f, records); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequencer output: %s (%d reads)\n", path, len(records))

	// Wetlab-data path: parse, orient, trim.
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	parsed, err := dnastore.ParseFASTQ(f)
	f.Close() //dnalint:allow errflow -- read-only file: a close error cannot lose data
	if err != nil {
		log.Fatal(err)
	}
	inner, stats := dnastore.PreprocessFASTQ(parsed, pair, 4)
	fmt.Printf("preprocess: kept %d/%d reads (%d flipped from 3'→5', %d unmatched, %d trim failures)\n",
		stats.Kept, stats.Total, stats.ReverseOriented, stats.UnmatchedPrimers, stats.TrimFailures)

	// The primers are gone, so decode with a primer-less codec of the same
	// inner geometry; the preprocessed reads replace the simulator.
	decCodec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 60, K: 40, PayloadBytes: 25, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	pipe := &dnastore.Pipeline{
		Codec:         decCodec,
		Simulator:     dnastore.ReadsSource{Reads: inner},
		Clusterer:     core.OptionsClusterer{Options: dnastore.ClusterOptions{Seed: 7}},
		Reconstructor: core.AlgorithmReconstructor{Algorithm: dnastore.NWReconstruction{}},
	}
	res, err := pipe.RunContext(context.Background(), nil, dnastore.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decode report: %v\n", res.Report)
	if bytes.Equal(res.Data, data) {
		fmt.Println("file recovered EXACTLY from the FASTQ run")
	} else {
		fmt.Println("recovery FAILED")
	}
}
