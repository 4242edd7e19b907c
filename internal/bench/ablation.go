package bench

import (
	"context"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// GiniConfig sizes the Gini-vs-baseline ablation (§IV-B): double-sided BMA
// concentrates reconstruction errors on the middle strand indexes, i.e. the
// middle matrix rows. Under the baseline layout the middle codewords absorb
// all of that and fail first; Gini spreads every codeword across all rows,
// so the same number of copies per molecule corrects more reliably.
type GiniConfig struct {
	FileBytes int
	Coverages []int
	ErrorRate float64
	Runs      int
	Seed      uint64
}

// DefaultGini returns the default ablation configuration.
func DefaultGini() GiniConfig {
	return GiniConfig{
		FileBytes: 6000,
		Coverages: []int{6, 7, 8, 9, 10},
		ErrorRate: 0.08,
		Runs:      5,
		Seed:      6,
	}
}

// QuickGini returns a unit-test-sized configuration.
func QuickGini() GiniConfig {
	c := DefaultGini()
	c.FileBytes, c.Runs = 2500, 3
	c.Coverages = []int{7, 8}
	return c
}

// GiniCell is one (layout, coverage) measurement.
type GiniCell struct {
	Layout          string
	Coverage        int
	FailedCodewords float64 // mean per run
	Recovered       float64 // fraction of runs with exact recovery
}

// GiniResult holds all cells.
type GiniResult struct {
	Cells []GiniCell
}

// Cell returns the (layout, coverage) cell.
func (r GiniResult) Cell(layout string, coverage int) GiniCell {
	for _, c := range r.Cells {
		if c.Layout == layout && c.Coverage == coverage {
			return c
		}
	}
	return GiniCell{}
}

// Gini runs the ablation: encode with each layout, simulate, reconstruct
// with double-sided BMA on ideal clusters (isolating the layout effect from
// clustering noise), decode, and count codeword failures.
func Gini(cfg GiniConfig) (GiniResult, error) {
	var res GiniResult
	layouts := []codec.Layout{codec.BaselineLayout{}, codec.GiniLayout{}}
	for _, coverage := range cfg.Coverages {
		for _, layout := range layouts {
			cell := GiniCell{Layout: layout.Name(), Coverage: coverage}
			for run := 0; run < cfg.Runs; run++ {
				seed := cfg.Seed + uint64(run)*97
				rng := xrand.New(seed)
				data := make([]byte, cfg.FileBytes)
				for i := range data {
					data[i] = byte(rng.Intn(256))
				}
				c, err := codec.NewCodec(codec.Params{
					N: 60, K: 48, PayloadBytes: 30, Seed: seed, Layout: layout,
				})
				if err != nil {
					return res, err
				}
				strands, err := c.EncodeFile(data)
				if err != nil {
					return res, err
				}
				recons, _, err := reconstructByOrigin(strands, c.StrandLen(), sim.Options{
					Channel:  sim.CalibratedIID(cfg.ErrorRate),
					Coverage: sim.FixedCoverage(coverage),
					Seed:     seed + 1,
				})
				if err != nil {
					return res, err
				}
				got, report, err := c.DecodeFileContext(context.Background(), recons, codec.DecodeOptions{})
				if err == nil && report.Clean() && string(got) == string(data) {
					cell.Recovered++
				}
				cell.FailedCodewords += float64(report.FailedCodewords)
			}
			cell.FailedCodewords /= float64(cfg.Runs)
			cell.Recovered /= float64(cfg.Runs)
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// SweepConfig sizes the straggler-sweep ablation: the final sweep pass is
// this reproduction's addition to the multi-round clustering algorithm
// (DESIGN.md); the ablation quantifies its accuracy benefit and time cost.
type SweepConfig struct {
	Strands   int
	StrandLen int
	Coverage  int
	ErrorRate float64
	Seed      uint64
}

// DefaultSweep returns the default configuration.
func DefaultSweep() SweepConfig {
	return SweepConfig{Strands: 800, StrandLen: 110, Coverage: 10, ErrorRate: 0.12, Seed: 7}
}

// SweepCell is one measurement.
type SweepCell struct {
	SweepEnabled bool
	Accuracy     float64
	EditCalls    int
	Time         time.Duration
}

// SweepResult holds the with/without cells.
type SweepResult struct {
	With, Without SweepCell
}

// Sweep runs the ablation at a high error rate, where stragglers matter.
func Sweep(cfg SweepConfig) (SweepResult, error) {
	ctx := context.Background()
	strands := drawStrands(xrand.New(cfg.Seed), cfg.Strands, cfg.StrandLen)
	reads, err := sim.SimulatePoolContext(ctx, strands, sim.Options{
		Channel:  sim.CalibratedIID(cfg.ErrorRate),
		Coverage: sim.FixedCoverage(cfg.Coverage),
		Seed:     cfg.Seed + 1,
	})
	if err != nil {
		return SweepResult{}, err
	}
	seqs := make([]dna.Seq, len(reads))
	origins := make([]int, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
		origins[i] = r.Origin
	}
	run := func(disable bool) (SweepCell, error) {
		start := time.Now()
		out, err := cluster.ClusterContext(ctx, seqs, cluster.Options{Seed: cfg.Seed + 2, NoStragglerSweep: disable})
		return SweepCell{
			SweepEnabled: !disable,
			Accuracy:     cluster.Accuracy(out.Clusters, origins, 0.9, cfg.Strands),
			EditCalls:    out.Stats.EditDistanceCalls,
			Time:         time.Since(start),
		}, err
	}
	var res SweepResult
	if res.With, err = run(false); err != nil {
		return res, err
	}
	res.Without, err = run(true)
	return res, err
}
