package bench

import (
	"context"

	"dnastore/internal/dna"
	"dnastore/internal/recon"
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
	Rows   []SimulatorRow
	Losses []float64 // per-epoch training losses (must decrease)
}

// Real returns the real-data row.
func (r TableIRNNResult) Real() SimulatorRow { return r.Rows[len(r.Rows)-1] }

// Row returns the named row, or a zero row.
func (r TableIRNNResult) Row(name string) SimulatorRow {
	for _, row := range r.Rows {
		if row.Name == name {
			return row
		}
	}
	return SimulatorRow{}
}

// TableIRNN runs the GRU-backed simulator-fidelity experiment.
func TableIRNN(cfg TableIRNNConfig) (TableIRNNResult, error) {
	rng := xrand.New(cfg.Seed)
	ref := sim.NewReferenceWetlab()
	ref.BaseRate = cfg.Severity

	train := make([]dna.Seq, cfg.TrainStrands)
	for i := range train {
		train[i] = dna.Random(rng, cfg.StrandLen)
	}
	test := make([]dna.Seq, cfg.TestStrands)
	for i := range test {
		test[i] = dna.Random(rng, cfg.StrandLen)
	}

	pairs := sim.GeneratePairs(cfg.Seed+1, ref, train, 2)
	rate := sim.MeasureErrorRate(pairs)
	model, losses := sim.TrainRNN(pairs, sim.RNNConfig{
		Hidden: cfg.Hidden, Epochs: cfg.Epochs, Seed: cfg.Seed + 2,
	})

	channels := []struct {
		name string
		ch   sim.Channel
	}{
		{"Rashtchian", sim.CalibratedIID(rate)},
		{"GRU", model},
		{"Real", ref},
	}
	res := TableIRNNResult{Losses: losses}
	for ci, c := range channels {
		reads, err := sim.SimulatePoolContext(context.Background(), test, sim.Options{
			Channel:   c.ch,
			Coverage:  sim.FixedCoverage(cfg.Coverage),
			Seed:      cfg.Seed + 10 + uint64(ci),
			KeepOrder: true,
		})
		if err != nil {
			return TableIRNNResult{}, err
		}
		clusters := make([][]dna.Seq, len(test))
		for _, r := range reads {
			clusters[r.Origin] = append(clusters[r.Origin], r.Seq)
		}
		recons, err := recon.ReconstructAllContext(context.Background(), clusters, cfg.StrandLen, recon.DoubleSidedBMA{}, 0)
		if err != nil {
			return TableIRNNResult{}, err
		}
		profile := recon.ErrorProfile(test, recons, cfg.StrandLen)
		res.Rows = append(res.Rows, SimulatorRow{
			Name:    c.name,
			MeanErr: recon.MeanErrorRate(profile),
			Perfect: recon.PerfectCount(test, recons),
			Profile: profile,
		})
	}
	realProfile := res.Rows[len(res.Rows)-1].Profile
	for i := range res.Rows {
		res.Rows[i].MeanDev = recon.MeanAbsDeviation(res.Rows[i].Profile, realProfile)
	}
	return res, nil
}
