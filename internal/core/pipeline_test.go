package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/fastq"
	"dnastore/internal/obs"
	"dnastore/internal/primer"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
)

func testCodec(t testing.TB, primers *primer.Pair) *codec.Codec {
	t.Helper()
	c, err := codec.NewCodec(codec.Params{
		N: 30, K: 20, PayloadBytes: 15, Seed: 7, Primers: primers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testPipeline(t *testing.T, algo recon.Algorithm, rate float64, coverage int) *Pipeline {
	t.Helper()
	return New(testCodec(t, nil),
		sim.Options{Channel: sim.CalibratedIID(rate), Coverage: sim.FixedCoverage(coverage), Seed: 11},
		cluster.Options{Seed: 13},
		algo)
}

func TestEndToEndRoundTrip(t *testing.T) {
	data := []byte("An end-to-end DNA data storage pipeline: encode, simulate, cluster, reconstruct, decode. " +
		"This payload spans multiple encoding units to exercise indexing across units as well.")
	for _, algo := range []recon.Algorithm{recon.BMA{}, recon.DoubleSidedBMA{}, recon.NW{}} {
		p := testPipeline(t, algo, 0.03, 10)
		res, err := p.RunContext(context.Background(), data, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if !bytes.Equal(res.Data, data) {
			t.Fatalf("%s: recovered data differs (report %v)", algo.Name(), res.Report)
		}
	}
}

func TestEndToEndAtSixPercent(t *testing.T) {
	// The paper's Table III setting: 6% error. The outer RS code must
	// absorb remaining reconstruction mistakes.
	data := bytes.Repeat([]byte("dna storage toolkit!"), 20)
	p := testPipeline(t, recon.NW{}, 0.06, 10)
	res, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("recovered data differs: report %v", res.Report)
	}
}

func TestResultCounts(t *testing.T) {
	data := []byte("counts")
	p := testPipeline(t, recon.DoubleSidedBMA{}, 0.03, 8)
	res, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strands != 30 { // one unit
		t.Fatalf("strands = %d", res.Strands)
	}
	if res.Reads != 30*8 {
		t.Fatalf("reads = %d", res.Reads)
	}
	if res.Clusters == 0 {
		t.Fatal("no clusters")
	}
}

func TestResultStagesMatchMetrics(t *testing.T) {
	// Result.Stages and StreamResult.Stages are the run's own counters: on a
	// fresh Metrics registry they equal its snapshot, and every stage the
	// run went through recorded busy time.
	data := streamTestData(1300)
	for _, stream := range []bool{false, true} {
		p := streamPipeline(t)
		p.Metrics = obs.NewRegistry()
		want := []string{stageEncode, stageSimulate, stageCluster, stageReconstruct, stageDecode}
		var stages []obs.StageSnapshot
		if stream {
			res, err := p.RunStream(context.Background(), bytes.NewReader(data), io.Discard, StreamOptions{VolumeBytes: 600})
			if err != nil {
				t.Fatal(err)
			}
			stages = res.Stages
			want = []string{stageEncode, stageSimulate, stageDemux, stageCluster, stageReconstruct, stageDecode}
		} else {
			res, err := p.RunContext(context.Background(), data, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			stages = res.Stages
		}
		if snap := p.Metrics.Snapshot(); !reflect.DeepEqual(stages, snap) {
			t.Fatalf("stream=%v: Stages %+v, Metrics snapshot %+v", stream, stages, snap)
		}
		if len(stages) != len(want) {
			t.Fatalf("stream=%v: %d stages %+v, want %v", stream, len(stages), stages, want)
		}
		for i, s := range stages {
			if s.Stage != want[i] || s.BusyNanos <= 0 {
				t.Fatalf("stream=%v: stage %d is %q with %d ns busy, want %q with busy time above 0", stream, i, s.Stage, s.BusyNanos, want[i])
			}
		}
	}
}

func TestNotConfigured(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.RunContext(context.Background(), nil, RunOptions{}); err != ErrNotConfigured {
		t.Fatalf("err = %v", err)
	}
}

func TestDropoutWithinErasureBudget(t *testing.T) {
	data := bytes.Repeat([]byte{0x5A}, 250)
	c := testCodec(t, nil)
	p := New(c,
		sim.Options{Channel: sim.CalibratedIID(0.03), Coverage: sim.FixedCoverage(10), Dropout: 0.08, Seed: 17},
		cluster.Options{Seed: 19},
		recon.NW{})
	res, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("dropout decode failed: %v", res.Report)
	}
	if res.Report.MissingColumns == 0 {
		t.Log("note: no strand happened to drop at this seed")
	}
}

func TestWetlabReplayViaFASTQ(t *testing.T) {
	// §VIII round trip: encode with primers, simulate, serialize the reads
	// as FASTQ in mixed orientation, preprocess (orient + trim primers),
	// and decode with a primer-less codec of the same inner geometry.
	pairs, err := primer.Design(21, 1, primer.DesignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	encCodec := testCodec(t, &pairs[0])
	data := []byte("wetlab replay: the sequencer returns reads in both orientations")
	strands, err := encCodec.EncodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := sim.SimulatePoolContext(context.Background(), strands, sim.Options{
		Channel:  sim.CalibratedIID(0.03),
		Coverage: sim.FixedCoverage(10),
		Seed:     23,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sequencers emit both orientations: flip every other read.
	seqs := make([]dna.Seq, len(reads))
	for i, r := range reads {
		if i%2 == 0 {
			seqs[i] = r.Seq.ReverseComplement()
		} else {
			seqs[i] = r.Seq
		}
	}
	records := fastq.FromReads(seqs, "nanopore")
	inner, stats := fastq.Preprocess(records, pairs[0], 4)
	if stats.Kept < len(records)*8/10 {
		t.Fatalf("preprocess kept %d/%d: %+v", stats.Kept, len(records), stats)
	}

	decCodec := testCodec(t, nil) // same geometry, no primers
	p := &Pipeline{
		Codec:         decCodec,
		Simulator:     ReadsSource{Reads: inner},
		Clusterer:     OptionsClusterer{Options: cluster.Options{Seed: 25}},
		Reconstructor: AlgorithmReconstructor{Algorithm: recon.NW{}},
	}
	res, err := p.RunContext(context.Background(), nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("wetlab replay decode failed: %v", res.Report)
	}
}

func TestModuleSwappability(t *testing.T) {
	// A custom reconstructor can be dropped in: here, one that just picks
	// the first read of each cluster (works only on clean channels).
	data := []byte("modularity")
	c := testCodec(t, nil)
	p := New(c,
		sim.Options{Channel: sim.NewIIDChannel(0, 0, 0), Coverage: sim.FixedCoverage(3), Seed: 27},
		cluster.Options{Seed: 29},
		nil)
	p.Reconstructor = firstReadReconstructor{}
	res, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("custom reconstructor failed on the clean channel")
	}
}

type firstReadReconstructor struct{}

func (firstReadReconstructor) ReconstructAll(_ context.Context, clusters [][]dna.Seq, targetLen int) ([]dna.Seq, error) {
	out := make([]dna.Seq, len(clusters))
	for i, c := range clusters {
		if len(c) > 0 {
			out[i] = c[0]
		}
	}
	return out, nil
}

func (firstReadReconstructor) Name() string { return "first-read" }

func TestMinClusterSizeFiltersAllAtLowCoverage(t *testing.T) {
	// Coverage 2 with a cluster-size floor of 3 drops every cluster. With a
	// reconstructor that never yields a decodable consensus, attempts 0 and
	// 1 (floors 1 and 2) run and fail; attempt 2's floor of 3 keeps no
	// cluster and ends the retries. The run must still report an explicit
	// failure, and the attempt count proves the floor is applied.
	data := []byte("two reads per strand")
	c := testCodec(t, nil)
	p := New(c,
		sim.Options{Channel: sim.CalibratedIID(0.01), Coverage: sim.FixedCoverage(2), Seed: 35},
		cluster.Options{Seed: 37},
		recon.NW{})
	ok, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil || !bytes.Equal(ok.Data, data) {
		t.Fatalf("baseline at coverage 2 failed: %v %v", ok.Report, err)
	}
	p.Reconstructor = garbageReconstructor{}
	res, err := p.RunContext(context.Background(), data, RunOptions{Retries: 4})
	if err == nil {
		t.Fatal("dropping every cluster still decoded")
	}
	if !errors.Is(err, ErrRetriesExhausted) || errors.Is(err, ErrNoUsableClusters) {
		t.Fatalf("err = %v, want ErrRetriesExhausted from the attempts that ran", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (the floor of 3 keeps no cluster at coverage 2)", res.Attempts)
	}
	if n := stageRetries(res.Stages, stageReconstruct); n != 1 {
		t.Fatalf("reconstruct counted %d retries, want 1", n)
	}
}
