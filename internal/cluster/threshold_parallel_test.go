package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dnastore/internal/xrand"
)

// TestAutoThresholdsParallelDeterministic pins the calibration's determinism
// contract: for a fixed seed, autoThresholds must return identical
// (thetaLow, thetaHigh) and a bit-identical histogram at every worker count,
// in both signature modes — the parallel distance rows are merged in probe
// order, so scheduling must never leak into the result.
func TestAutoThresholdsParallelDeterministic(t *testing.T) {
	reads, _ := makePool(t, 21, 120, 110, 8, 0.06)
	ctx := context.Background()
	for _, mode := range []SignatureMode{QGram, WGram} {
		grams := newGramSet(xrand.New(23), mode, 48, 4)
		wantLow, wantHigh, wantHist := autoThresholds(ctx, reads, grams, xrand.New(29), 1)
		for _, workers := range []int{2, 3, 8} {
			low, high, hist := autoThresholds(ctx, reads, grams, xrand.New(29), workers)
			if low != wantLow || high != wantHigh {
				t.Fatalf("mode %v workers %d: thresholds (%d,%d), serial (%d,%d)",
					mode, workers, low, high, wantLow, wantHigh)
			}
			if len(hist) != len(wantHist) {
				t.Fatalf("mode %v workers %d: hist len %d, serial %d",
					mode, workers, len(hist), len(wantHist))
			}
			for d := range hist {
				if hist[d] != wantHist[d] {
					t.Fatalf("mode %v workers %d: hist[%d] = %d, serial %d",
						mode, workers, d, hist[d], wantHist[d])
				}
			}
		}
	}
}

// TestAutoThresholdsContextMatchesClusterStats pins AutoThresholdsContext
// to the calibration ClusterContext runs: for the same Options it returns
// the θ pair ClusterContext reports in Stats, in both signature modes, at
// gram lengths other than the default and at any worker count. Options
// ClusterContext rejects are rejected here too.
func TestAutoThresholdsContextMatchesClusterStats(t *testing.T) {
	reads, _ := makePool(t, 33, 60, 110, 6, 0.06)
	ctx := context.Background()
	for _, mode := range []SignatureMode{QGram, WGram} {
		for _, gramLen := range []int{3, 5} {
			for _, workers := range []int{1, 4} {
				opts := Options{Mode: mode, GramLen: gramLen, Workers: workers, Rounds: 2, Seed: 35}
				t.Run(fmt.Sprintf("mode=%v/q=%d/workers=%d", mode, gramLen, workers), func(t *testing.T) {
					low, high, hist, err := AutoThresholdsContext(ctx, reads, opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(hist) == 0 {
						t.Fatal("no histogram")
					}
					res, err := ClusterContext(ctx, reads, opts)
					if err != nil {
						t.Fatal(err)
					}
					if low != res.Stats.ThetaLow || high != res.Stats.ThetaHigh {
						t.Fatalf("AutoThresholdsContext (%d,%d), ClusterContext Stats (%d,%d)",
							low, high, res.Stats.ThetaLow, res.Stats.ThetaHigh)
					}
				})
			}
		}
	}
	if _, _, _, err := AutoThresholdsContext(ctx, reads, Options{GramLen: 9}); !errors.Is(err, ErrOptions) {
		t.Fatalf("GramLen 9: err = %v, want ErrOptions", err)
	}
}
