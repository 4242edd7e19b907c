package dnastore_test

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"path/filepath"
	"testing"
	"time"

	"dnastore"
)

func faultTestPipeline(t *testing.T) (*dnastore.Codec, *dnastore.Pipeline) {
	t.Helper()
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 30, K: 20, PayloadBytes: 15, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := dnastore.NewPipeline(codec,
		dnastore.SimOptions{Channel: dnastore.CalibratedIID(0.02),
			Coverage: dnastore.FixedCoverage(10), Seed: 1},
		dnastore.ClusterOptions{Seed: 2},
		dnastore.NWReconstruction{})
	return codec, pipe
}

// TestFacadeSentinelErrors verifies every typed error is matchable with
// errors.Is through the public API, end to end.
func TestFacadeSentinelErrors(t *testing.T) {
	t.Run("not configured", func(t *testing.T) {
		var empty dnastore.Pipeline
		_, err := empty.RunContext(context.Background(), nil, dnastore.RunOptions{})
		if !errors.Is(err, dnastore.ErrNotConfigured) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		_, pipe := faultTestPipeline(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := pipe.RunContext(ctx, []byte("x"), dnastore.RunOptions{})
		if !errors.Is(err, dnastore.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("no usable clusters", func(t *testing.T) {
		// A run with no reads leaves nothing to reconstruct.
		_, pipe := faultTestPipeline(t)
		pipe.Simulator = dnastore.ReadsSource{}
		res, err := pipe.RunContext(context.Background(), []byte("starved"), dnastore.RunOptions{})
		if !errors.Is(err, dnastore.ErrNoUsableClusters) {
			t.Fatalf("err = %v", err)
		}
		if res.Report.MissingColumns != res.Strands || res.Strands == 0 {
			t.Fatalf("report not populated alongside the typed error: missing=%d strands=%d", res.Report.MissingColumns, res.Strands)
		}
	})
	t.Run("decode", func(t *testing.T) {
		codec, _ := faultTestPipeline(t)
		_, _, err := codec.DecodeFileContext(context.Background(), nil, dnastore.DecodeOptions{})
		if !errors.Is(err, dnastore.ErrDecode) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("no channel", func(t *testing.T) {
		strands := []dnastore.Seq{dnastore.MustParseSeq("ACGTACGTAC")}
		_, err := dnastore.SimulatePool(context.Background(), strands, dnastore.SimOptions{})
		if !errors.Is(err, dnastore.ErrNoChannel) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("cluster options", func(t *testing.T) {
		codec, _ := faultTestPipeline(t)
		ctx := context.Background()
		reads := []dnastore.Seq{dnastore.MustParseSeq("ACGTACGTAC"), dnastore.MustParseSeq("ACGTACGTAA")}
		for _, q := range []int{9, -1} {
			opts := dnastore.ClusterOptions{GramLen: q, Seed: 2}
			if _, err := dnastore.ClusterReads(ctx, reads, opts); !errors.Is(err, dnastore.ErrClusterOptions) {
				t.Errorf("ClusterReads GramLen %d: err = %v", q, err)
			}
			if _, err := dnastore.ShardedClusterReads(ctx, reads, 2, opts); !errors.Is(err, dnastore.ErrClusterOptions) {
				t.Errorf("ShardedClusterReads GramLen %d: err = %v", q, err)
			}
			pipe := dnastore.NewPipeline(codec,
				dnastore.SimOptions{Channel: dnastore.CalibratedIID(0.02),
					Coverage: dnastore.FixedCoverage(10), Seed: 1},
				opts, dnastore.NWReconstruction{})
			if _, err := pipe.RunContext(ctx, []byte("options"), dnastore.RunOptions{}); !errors.Is(err, dnastore.ErrClusterOptions) {
				t.Errorf("RunContext GramLen %d: err = %v", q, err)
			}
			// The streaming and archive paths stop on the configuration
			// error instead of reporting every volume damaged, even best
			// effort.
			for _, best := range []bool{false, true} {
				var out bytes.Buffer
				sopts := dnastore.StreamOptions{VolumeBytes: 200, RunOptions: dnastore.RunOptions{BestEffort: best}}
				if _, err := pipe.RunStream(ctx, bytes.NewReader(make([]byte, 500)), &out, sopts); !errors.Is(err, dnastore.ErrClusterOptions) {
					t.Errorf("RunStream GramLen %d best effort %v: err = %v", q, best, err)
				}
			}
		}

		// An archive worker commits nothing on such options, so a resume
		// with corrected ones decodes every volume.
		_, good := faultTestPipeline(t)
		bad := dnastore.NewPipeline(codec,
			dnastore.SimOptions{Channel: dnastore.CalibratedIID(0.02),
				Coverage: dnastore.FixedCoverage(10), Seed: 1},
			dnastore.ClusterOptions{GramLen: 9, Seed: 2}, dnastore.NWReconstruction{})
		data := bytes.Repeat([]byte("archive options "), 40)
		dir := filepath.Join(t.TempDir(), "archive")
		outPath := filepath.Join(filepath.Dir(dir), "out.bin")
		if _, err := dnastore.BuildArchive(ctx, good, bytes.NewReader(data), dir, dnastore.StreamOptions{VolumeBytes: 200}); err != nil {
			t.Fatal(err)
		}
		if _, err := dnastore.RunArchiveWorker(ctx, bad, dir, outPath, dnastore.ArchiveWorkerOptions{Owner: "bad"}); !errors.Is(err, dnastore.ErrClusterOptions) {
			t.Fatalf("RunArchiveWorker: err = %v", err)
		}
		if _, err := dnastore.ReadArchiveCheckpoint(dnastore.ArchiveDir(dir).CheckpointPath(0)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("volume 0 checkpoint after the options error: err = %v", err)
		}
		res, err := dnastore.RunArchiveWorker(ctx, good, dir, outPath, dnastore.ArchiveWorkerOptions{Owner: "good"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Decoded != 4 || res.Skipped != 0 {
			t.Fatalf("resumed worker result %+v, want 4 decoded", res)
		}
	})
	t.Run("stage panic", func(t *testing.T) {
		_, pipe := faultTestPipeline(t)
		pipe.Metrics = dnastore.NewMetricsRegistry()
		pipe.Metrics.OnEvent(dnastore.ChaosPanicHook("simulate", 1))
		_, err := pipe.RunContext(context.Background(), []byte("boom"), dnastore.RunOptions{})
		if !errors.Is(err, dnastore.ErrStagePanic) {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestFacadeChaosRoundTrip drives a chaos-wrapped pipeline through the
// public API: injected faults everywhere, yet the run completes and the
// file survives (exactly, or partially with a damage map).
func TestFacadeChaosRoundTrip(t *testing.T) {
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 30, K: 20, PayloadBytes: 15, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := &dnastore.ChaosChannel{Inner: dnastore.CalibratedIID(0.02), PanicEveryN: 60}
	alg := &dnastore.ChaosAlgorithm{Inner: dnastore.NWReconstruction{}, PanicEveryN: 12}
	pipe := dnastore.NewPipeline(codec,
		dnastore.SimOptions{Channel: ch, Coverage: dnastore.FixedCoverage(10), Seed: 5},
		dnastore.ClusterOptions{Seed: 6},
		alg)
	pipe.Simulator = &dnastore.ChaosSimulator{
		Inner:  pipe.Simulator,
		Faults: dnastore.ChaosFaults{Seed: 7, DropRead: 0.02, StageLatency: time.Millisecond},
	}
	data := bytes.Repeat([]byte("chaos through the facade "), 10)
	res, err := pipe.RunContext(context.Background(), data, dnastore.RunOptions{Retries: 1, BestEffort: true})
	if err != nil {
		t.Fatalf("chaotic run failed outright: %v", err)
	}
	if ch.Injected() == 0 || alg.Injected() == 0 {
		t.Fatalf("injected %d channel and %d cluster panics, want both salvage paths exercised", ch.Injected(), alg.Injected())
	}
	if !bytes.Equal(res.Data, data) && !res.Report.Partial {
		t.Fatalf("corrupted data without a damage map: %v", res.Report)
	}
}

// TestFacadeStageTimeout verifies RunOptions.StageTimeout through the facade.
func TestFacadeStageTimeout(t *testing.T) {
	_, pipe := faultTestPipeline(t)
	pipe.Simulator = &dnastore.ChaosSimulator{
		Inner:  pipe.Simulator,
		Faults: dnastore.ChaosFaults{StageLatency: 30 * time.Second},
	}
	start := time.Now()
	_, err := pipe.RunContext(context.Background(), []byte("slow"), dnastore.RunOptions{StageTimeout: 50 * time.Millisecond})
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not enforced promptly")
	}
	if !errors.Is(err, dnastore.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}
