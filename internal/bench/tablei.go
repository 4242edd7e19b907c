// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md for the
// experiment index). Each experiment is a pure function of its Config, so
// the same code backs the root-level testing.B benchmarks and the
// cmd/experiments binary.
package bench

import (
	"context"

	"dnastore/internal/dna"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// TableIConfig sizes the simulator-fidelity experiment (Table I + Fig. 3).
//
// The paper uses 270K real Nanopore reads in 10K clusters (≈27× coverage),
// split 7988:998:998 train:validation:test. Here the reference wetlab
// channel plays the role of real data (see DESIGN.md, Substitutions):
// data-driven simulators train on paired reads from it; the naive simulators
// are calibrated only on the aggregate error rate.
type TableIConfig struct {
	TrainStrands  int     // strands in the training split
	TestStrands   int     // strands in the test split
	StrandLen     int     // nucleotides per strand
	Coverage      int     // mean reads per strand for reconstruction
	CoverageSigma float64 // log-normal coverage skew (real datasets are skewed)
	PairsPer      int     // noisy reads per training strand
	Severity      float64 // reference-wetlab BaseRate (≈ Nanopore-severity at 2.2)
	Seed          uint64
}

// DefaultTableI returns the paper-scale configuration.
func DefaultTableI() TableIConfig {
	return TableIConfig{
		TrainStrands:  2000,
		TestStrands:   998,
		StrandLen:     110,
		Coverage:      27,
		CoverageSigma: 0.9,
		PairsPer:      2,
		Severity:      2.2,
		Seed:          1,
	}
}

// QuickTableI returns a configuration small enough for unit tests.
func QuickTableI() TableIConfig {
	c := DefaultTableI()
	c.TrainStrands, c.TestStrands, c.Coverage = 400, 200, 15
	return c
}

// SimulatorRow is one simulator's Table I entry.
type SimulatorRow struct {
	Name     string
	MeanErr  float64   // (ii) mean per-index reconstruction error rate
	MeanDev  float64   // (iii) mean |profile − real profile| over indexes
	Perfect  int       // (iv) perfectly reconstructed strands
	Profile  []float64 // per-index error profile (the Fig. 3 curve)
	RawRate  float64   // aggregate channel error rate (diagnostic)
	Channel  sim.Channel
	DatasetN int
}

// TableIResult holds all simulator rows; the last row is Real.
type TableIResult struct {
	Rows []SimulatorRow
}

// Real returns the real-data row.
func (r TableIResult) Real() SimulatorRow { return r.Rows[len(r.Rows)-1] }

// Row returns the named row, or a zero row.
func (r TableIResult) Row(name string) SimulatorRow {
	for _, row := range r.Rows {
		if row.Name == name {
			return row
		}
	}
	return SimulatorRow{}
}

// TableI runs the simulator-fidelity experiment: every channel generates a
// read dataset over the same test strands; the double-sided BMA
// reconstruction (as in the paper) is applied to each dataset; profiles are
// compared against the real channel's.
func TableI(cfg TableIConfig) (TableIResult, error) {
	rng := xrand.New(cfg.Seed)
	ref := sim.NewReferenceWetlab()
	ref.BaseRate = cfg.Severity

	// Disjoint train and test strand sets.
	train := drawStrands(rng, cfg.TrainStrands, cfg.StrandLen)
	test := drawStrands(rng, cfg.TestStrands, cfg.StrandLen)

	// Paired training data from the reference channel; the data-driven
	// model sees only these pairs, the naive models only the mean rate.
	pairs := sim.GeneratePairs(cfg.Seed+1, ref, train, cfg.PairsPer)
	rate := sim.MeasureErrorRate(pairs)
	learned := sim.TrainProfile(pairs, 24)

	channels := []fidelityChannel{
		{"Rashtchian", sim.CalibratedIID(rate)},
		{"SOLQC", sim.DefaultSOLQC(rate)},
		{"RNN", learned}, // data-driven stand-in for the paper's RNN
		{"Real", ref},
	}
	var coverage sim.CoverageModel = sim.FixedCoverage(cfg.Coverage)
	if cfg.CoverageSigma > 0 {
		coverage = sim.SkewedCoverage{Mean: float64(cfg.Coverage), Sigma: cfg.CoverageSigma}
	}
	// The same coverage draw for every channel.
	rows, err := fidelityRows(test, cfg.StrandLen, channels, coverage, func(int) uint64 { return cfg.Seed + 10 })
	if err != nil {
		return TableIResult{}, err
	}
	for ci := range rows {
		rows[ci].RawRate = sim.MeasureErrorRate(sim.GeneratePairs(cfg.Seed+99+uint64(ci), rows[ci].Channel, test[:min(len(test), 200)], 1))
	}
	return TableIResult{Rows: rows}, nil
}

// fidelityChannel is one simulator of a fidelity experiment.
type fidelityChannel struct {
	name string
	ch   sim.Channel
}

// fidelityRows runs the §V-A fidelity loop shared by Table I and its GRU
// variant: each channel generates a read dataset over the test strands at
// the given coverage and seed(ci), the dataset is reconstructed per origin
// with double-sided BMA, and each row's per-index error profile is compared
// against the last channel's, the real one.
func fidelityRows(test []dna.Seq, strandLen int, channels []fidelityChannel, coverage sim.CoverageModel, seed func(ci int) uint64) ([]SimulatorRow, error) {
	rows := make([]SimulatorRow, 0, len(channels))
	for ci, c := range channels {
		recons, reads, err := reconstructByOrigin(test, strandLen, sim.Options{
			Channel: c.ch, Coverage: coverage, Seed: seed(ci),
		})
		if err != nil {
			return nil, err
		}
		profile := recon.ErrorProfile(test, recons, strandLen)
		rows = append(rows, SimulatorRow{
			Name:     c.name,
			MeanErr:  recon.MeanErrorRate(profile),
			Perfect:  recon.PerfectCount(test, recons),
			Profile:  profile,
			Channel:  c.ch,
			DatasetN: reads,
		})
	}
	realProfile := rows[len(rows)-1].Profile
	for i := range rows {
		rows[i].MeanDev = recon.MeanAbsDeviation(rows[i].Profile, realProfile)
	}
	return rows, nil
}

// reconstructByOrigin simulates reads of strands under opts, groups them by
// their true origin (perfect clustering) and reconstructs every strand with
// double-sided BMA, as the paper's fidelity and layout experiments do. Reads
// keep their simulation order (KeepOrder), which fixes each cluster's read
// order and so the consensus. It also returns the number of reads.
func reconstructByOrigin(strands []dna.Seq, strandLen int, opts sim.Options) ([]dna.Seq, int, error) {
	opts.KeepOrder = true
	reads, err := sim.SimulatePoolContext(context.Background(), strands, opts)
	if err != nil {
		return nil, 0, err
	}
	clusters := make([][]dna.Seq, len(strands))
	for _, r := range reads {
		clusters[r.Origin] = append(clusters[r.Origin], r.Seq)
	}
	recons, err := recon.ReconstructAllContext(context.Background(), clusters, strandLen, recon.DoubleSidedBMA{}, 0)
	return recons, len(reads), err
}

// drawStrands returns n random strands of strandLen bases drawn from rng.
func drawStrands(rng *xrand.RNG, n, strandLen int) []dna.Seq {
	strands := make([]dna.Seq, n)
	for i := range strands {
		strands[i] = dna.Random(rng, strandLen)
	}
	return strands
}
