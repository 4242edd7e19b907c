package dnastore_test

import (
	"bytes"
	"context"
	"errors"
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
		_, err := empty.Run(nil, dnastore.RunOptions{})
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
		codec, _ := faultTestPipeline(t)
		pipe := dnastore.NewPipeline(codec,
			dnastore.SimOptions{Channel: dnastore.CalibratedIID(0.01),
				Coverage: dnastore.FixedCoverage(2), Seed: 3},
			dnastore.ClusterOptions{Seed: 4},
			dnastore.NWReconstruction{})
		res, err := pipe.Run([]byte("starved"), dnastore.RunOptions{MinClusterSize: 5})
		if !errors.Is(err, dnastore.ErrNoUsableClusters) {
			t.Fatalf("err = %v", err)
		}
		if res.Report.MissingColumns == 0 {
			t.Fatal("report not populated alongside the typed error")
		}
	})
	t.Run("decode", func(t *testing.T) {
		codec, _ := faultTestPipeline(t)
		_, _, err := codec.DecodeFile(nil)
		if !errors.Is(err, dnastore.ErrDecode) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("stage panic", func(t *testing.T) {
		_, pipe := faultTestPipeline(t)
		pipe.Simulator = &dnastore.ChaosSimulator{
			Inner:  pipe.Simulator,
			Faults: dnastore.ChaosFaults{PanicEveryN: 1},
		}
		_, err := pipe.Run([]byte("boom"), dnastore.RunOptions{})
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
	res, err := pipe.Run(data, dnastore.RunOptions{Retries: 1, BestEffort: true})
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
	_, err := pipe.Run([]byte("slow"), dnastore.RunOptions{StageTimeout: 50 * time.Millisecond})
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not enforced promptly")
	}
	if !errors.Is(err, dnastore.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}
