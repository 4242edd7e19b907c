package bench

import (
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// TableIRNNConfig sizes the GRU-backed variant of the Table I experiment:
// instead of the statistical profile model, the actual sequence-to-sequence
// GRU with attention (Fig. 4 of the paper, internal/nn) is trained on the
// paired reads and generates the "RNN" dataset. CPU training keeps this at
// demonstration scale — short strands, small hidden size — so it documents
// end-to-end behaviour rather than matching the paper-scale numbers.
type TableIRNNConfig struct {
	TrainStrands int
	TestStrands  int
	StrandLen    int
	Coverage     int
	Severity     float64
	Hidden       int
	Epochs       int
	Seed         uint64
}

// DefaultTableIRNN returns a configuration that trains in a few minutes on
// one core. Even so, the model stays far smaller than the paper's
// (hidden 128, large paired corpus), so its generated noise rate overshoots;
// the row demonstrates the end-to-end train/generate path, not fidelity.
func DefaultTableIRNN() TableIRNNConfig {
	return TableIRNNConfig{
		TrainStrands: 300,
		TestStrands:  150,
		StrandLen:    32,
		Coverage:     12,
		Severity:     1.6,
		Hidden:       24,
		Epochs:       40,
		Seed:         9,
	}
}

// TableIRNNResult compares the GRU simulator against the naive IID channel
// and the reference ("Real") channel on the §V-A metrics.
type TableIRNNResult struct {
	TableIResult
	Losses []float64 // per-epoch training losses (must decrease)
}

// TableIRNN runs the GRU-backed simulator-fidelity experiment.
func TableIRNN(cfg TableIRNNConfig) (TableIRNNResult, error) {
	rng := xrand.New(cfg.Seed)
	ref := sim.NewReferenceWetlab()
	ref.BaseRate = cfg.Severity

	train := drawStrands(rng, cfg.TrainStrands, cfg.StrandLen)
	test := drawStrands(rng, cfg.TestStrands, cfg.StrandLen)

	pairs := sim.GeneratePairs(cfg.Seed+1, ref, train, 2)
	rate := sim.MeasureErrorRate(pairs)
	model, losses := sim.TrainRNN(pairs, sim.RNNConfig{
		Hidden: cfg.Hidden, Epochs: cfg.Epochs, Seed: cfg.Seed + 2,
	})

	channels := []fidelityChannel{
		{"Rashtchian", sim.CalibratedIID(rate)},
		{"GRU", model},
		{"Real", ref},
	}
	rows, err := fidelityRows(test, cfg.StrandLen, channels, sim.FixedCoverage(cfg.Coverage), func(ci int) uint64 { return cfg.Seed + 10 + uint64(ci) })
	if err != nil {
		return TableIRNNResult{}, err
	}
	return TableIRNNResult{TableIResult: TableIResult{Rows: rows}, Losses: losses}, nil
}
