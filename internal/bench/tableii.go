package bench

import (
	"context"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/dna"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// TableIIConfig sizes the clustering comparison (Table II): q-gram vs
// w-gram accuracy and runtime across error rates at coverage 10.
type TableIIConfig struct {
	Strands    int
	StrandLen  int
	Coverage   int
	ErrorRates []float64
	Runs       int // runs averaged per cell (paper: 10)
	Gamma      float64
	Seed       uint64
	// WithSweep enables this reproduction's straggler sweep. The default
	// (false) measures the bare Rashtchian multi-round algorithm, which is
	// what the paper's Table II compares; the sweep's effect is quantified
	// separately by the sweep ablation.
	WithSweep bool
}

// DefaultTableII returns a configuration comparable to the paper's setup.
func DefaultTableII() TableIIConfig {
	return TableIIConfig{
		Strands:    1000,
		StrandLen:  110,
		Coverage:   10,
		ErrorRates: []float64{0.03, 0.06, 0.09, 0.12, 0.15},
		Runs:       3,
		Gamma:      0.9,
		Seed:       2,
	}
}

// QuickTableII returns a unit-test-sized configuration.
func QuickTableII() TableIIConfig {
	c := DefaultTableII()
	c.Strands, c.Runs = 120, 1
	c.ErrorRates = []float64{0.06, 0.12}
	return c
}

// TableIICell is one (error rate, mode) measurement, averaged over runs.
type TableIICell struct {
	ErrorRate     float64
	Mode          cluster.SignatureMode
	Accuracy      float64
	ClusterTime   time.Duration // merge/partition work
	SignatureTime time.Duration
	OverallTime   time.Duration
	EditCalls     int
}

// TableIIResult groups cells by error rate in input order: for each rate,
// the q-gram cell precedes the w-gram cell.
type TableIIResult struct {
	Cells []TableIICell
}

// Cell returns the measurement for (rate, mode).
func (r TableIIResult) Cell(rate float64, mode cluster.SignatureMode) TableIICell {
	for _, c := range r.Cells {
		if c.ErrorRate == rate && c.Mode == mode {
			return c
		}
	}
	return TableIICell{}
}

// TableII runs the clustering comparison.
func TableII(cfg TableIIConfig) (TableIIResult, error) {
	ctx := context.Background()
	var res TableIIResult
	for _, rate := range cfg.ErrorRates {
		for _, mode := range []cluster.SignatureMode{cluster.QGram, cluster.WGram} {
			var cell TableIICell
			cell.ErrorRate = rate
			cell.Mode = mode
			for run := 0; run < cfg.Runs; run++ {
				seed := cfg.Seed + uint64(run)*1000 + uint64(rate*1e4)
				strands := drawStrands(xrand.New(seed), cfg.Strands, cfg.StrandLen)
				reads, err := sim.SimulatePoolContext(ctx, strands, sim.Options{
					Channel:  sim.CalibratedIID(rate),
					Coverage: sim.FixedCoverage(cfg.Coverage),
					Seed:     seed + 1,
				})
				if err != nil {
					return res, err
				}
				seqs := make([]dna.Seq, len(reads))
				origins := make([]int, len(reads))
				for i, r := range reads {
					seqs[i] = r.Seq
					origins[i] = r.Origin
				}
				start := time.Now()
				out, err := cluster.ClusterContext(ctx, seqs, cluster.Options{
					Mode: mode, Seed: seed + 2, NoStragglerSweep: !cfg.WithSweep,
				})
				total := time.Since(start)
				if err != nil {
					return res, err
				}
				cell.Accuracy += cluster.Accuracy(out.Clusters, origins, cfg.Gamma, cfg.Strands)
				cell.SignatureTime += out.Stats.SignatureTime
				cell.ClusterTime += out.Stats.ClusterTime
				cell.OverallTime += total
				cell.EditCalls += out.Stats.EditDistanceCalls
			}
			cell.Accuracy /= float64(cfg.Runs)
			cell.SignatureTime /= time.Duration(cfg.Runs)
			cell.ClusterTime /= time.Duration(cfg.Runs)
			cell.OverallTime /= time.Duration(cfg.Runs)
			cell.EditCalls /= cfg.Runs
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Fig5Config sizes the auto-threshold histogram experiment (Fig. 5).
type Fig5Config struct {
	Strands   int
	StrandLen int
	Coverage  int
	ErrorRate float64
	Seed      uint64
}

// DefaultFig5 returns the default Fig. 5 configuration.
func DefaultFig5() Fig5Config {
	return Fig5Config{Strands: 500, StrandLen: 110, Coverage: 10, ErrorRate: 0.06, Seed: 3}
}

// Fig5Result is the signature-distance histogram with the derived
// thresholds, i.e. exactly what Fig. 5 plots.
type Fig5Result struct {
	Histogram []int
	ThetaLow  int
	ThetaHigh int
}

// Fig5 samples reads and produces the auto-configuration histogram.
func Fig5(cfg Fig5Config) (Fig5Result, error) {
	strands := drawStrands(xrand.New(cfg.Seed), cfg.Strands, cfg.StrandLen)
	reads, err := sim.SimulatePoolContext(context.Background(), strands, sim.Options{
		Channel:  sim.CalibratedIID(cfg.ErrorRate),
		Coverage: sim.FixedCoverage(cfg.Coverage),
		Seed:     cfg.Seed + 1,
	})
	if err != nil {
		return Fig5Result{}, err
	}
	seqs := sim.Sequences(reads)
	low, high, hist, err := cluster.AutoThresholdsContext(context.Background(), seqs, cluster.Options{Seed: cfg.Seed + 2})
	if err != nil {
		return Fig5Result{}, err
	}
	return Fig5Result{Histogram: hist, ThetaLow: low, ThetaHigh: high}, nil
}
