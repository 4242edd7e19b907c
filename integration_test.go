package dnastore_test

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"

	"dnastore"
)

// TestRealisticChannelRoundTrip pushes a file through the pipeline under
// the reference wetlab channel (position ramps, bursts, per-read quality
// dispersion) with skewed coverage and strand dropout — the most realistic
// configuration the toolkit offers.
func TestRealisticChannelRoundTrip(t *testing.T) {
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 60, K: 40, PayloadBytes: 25, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := dnastore.NewPipeline(codec,
		dnastore.SimOptions{
			Channel:  dnastore.NewReferenceWetlab(),
			Coverage: dnastore.SkewedCoverage{Mean: 20, Sigma: 0.4},
			Dropout:  0.03,
			Seed:     102,
		},
		dnastore.ClusterOptions{Seed: 103},
		dnastore.NWReconstruction{})
	data := bytes.Repeat([]byte("realistic wetlab conditions "), 40)
	res, err := pipe.RunContext(context.Background(), data, dnastore.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("round trip failed under the reference channel: %v", res.Report)
	}
}

// TestGiniPipelineWithWGram combines the two non-default module choices.
func TestGiniPipelineWithWGram(t *testing.T) {
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 60, K: 40, PayloadBytes: 25, Seed: 104, Layout: dnastore.Gini{},
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := dnastore.NewPipeline(codec,
		dnastore.SimOptions{
			Channel:  dnastore.CalibratedIID(0.06),
			Coverage: dnastore.FixedCoverage(10),
			Seed:     105,
		},
		dnastore.ClusterOptions{Seed: 106, Mode: dnastore.WGram},
		dnastore.DoubleSidedBMAReconstruction{})
	data := []byte("gini layout + w-gram clustering + double-sided BMA")
	res, err := pipe.RunContext(context.Background(), data, dnastore.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("round trip failed: %v", res.Report)
	}
}

// TestQuickPipelineProperty: arbitrary small payloads survive the pipeline
// at a moderate error rate. A bounded-count property test over the whole
// system.
func TestQuickPipelineProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline property test in -short mode")
	}
	codec, err := dnastore.NewCodec(dnastore.CodecParams{
		N: 24, K: 16, PayloadBytes: 12, Seed: 107,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(payload []byte, seedByte uint8) bool {
		if len(payload) > 300 {
			payload = payload[:300]
		}
		pipe := dnastore.NewPipeline(codec,
			dnastore.SimOptions{
				Channel:  dnastore.CalibratedIID(0.05),
				Coverage: dnastore.FixedCoverage(8),
				Seed:     uint64(seedByte),
			},
			dnastore.ClusterOptions{Seed: uint64(seedByte) + 1},
			dnastore.NWReconstruction{})
		res, err := pipe.RunContext(context.Background(), payload, dnastore.RunOptions{})
		return err == nil && bytes.Equal(res.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
