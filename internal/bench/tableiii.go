package bench

import (
	"context"
	"fmt"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/core"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// Fig6Config sizes the reconstruction-profile experiment (Fig. 6): the
// per-index error rate of BMA, double-sided BMA and Needleman–Wunsch, plus
// the adaptive BMA/POA dispatcher.
type Fig6Config struct {
	Clusters  int
	StrandLen int
	Coverage  int
	ErrorRate float64
	Seed      uint64
}

// DefaultFig6 returns the default Fig. 6 configuration.
func DefaultFig6() Fig6Config {
	return Fig6Config{Clusters: 1000, StrandLen: 120, Coverage: 8, ErrorRate: 0.08, Seed: 4}
}

// QuickFig6 returns a unit-test-sized configuration.
func QuickFig6() Fig6Config {
	c := DefaultFig6()
	c.Clusters = 200
	return c
}

// Fig6Result holds the per-index profiles keyed by algorithm name. MeanEdit
// is the mean reference↔reconstruction edit distance — the profile charges a
// single indel at every downstream index, so the two metrics together
// separate shift errors from substitution errors.
type Fig6Result struct {
	Names    []string
	Profiles map[string][]float64
	Perfect  map[string]int
	MeanEdit map[string]float64
}

// Peak returns the maximum per-index error of the named algorithm.
func (r Fig6Result) Peak(name string) float64 {
	p := 0.0
	for _, v := range r.Profiles[name] {
		if v > p {
			p = v
		}
	}
	return p
}

// Fig6 reconstructs the same clusters with all the algorithms.
func Fig6(cfg Fig6Config) (Fig6Result, error) {
	rng := xrand.New(cfg.Seed)
	refs := make([]dna.Seq, cfg.Clusters)
	clusters := make([][]dna.Seq, cfg.Clusters)
	ch := sim.CalibratedIID(cfg.ErrorRate)
	for i := range refs {
		refs[i] = dna.Random(rng, cfg.StrandLen)
		for c := 0; c < cfg.Coverage; c++ {
			clusters[i] = append(clusters[i], ch.Transmit(rng, refs[i]))
		}
	}
	res := Fig6Result{Profiles: map[string][]float64{}, Perfect: map[string]int{}, MeanEdit: map[string]float64{}}
	// The paper's three algorithms, plus the adaptive dispatcher as a fourth
	// row: its profile should track NW's wherever BMA's consensus fails the
	// agreement check, at a fraction of NW's cost.
	for _, algo := range []recon.Algorithm{recon.BMA{}, recon.DoubleSidedBMA{}, recon.NW{}, recon.Adaptive{}} {
		recons, err := recon.ReconstructAllContext(context.Background(), clusters, cfg.StrandLen, algo, 0)
		if err != nil {
			return res, err
		}
		res.Names = append(res.Names, algo.Name())
		res.Profiles[algo.Name()] = recon.ErrorProfile(refs, recons, cfg.StrandLen)
		res.Perfect[algo.Name()] = recon.PerfectCount(refs, recons)
		res.MeanEdit[algo.Name()] = recon.MeanEditDistance(refs, recons)
	}
	return res, nil
}

// TableIIIConfig sizes the end-to-end latency breakdown (Table III):
// payload length 120 nt, error rate 6%, every clustering mode × every
// reconstruction algorithm, at two coverages.
type TableIIIConfig struct {
	FileBytes int
	Coverages []int
	ErrorRate float64
	Seed      uint64
}

// DefaultTableIII returns a configuration whose volumes are large enough
// for the latency shapes (clustering dominance and growth with coverage,
// w-gram slower than q-gram with a widening gap) to be visible, while the
// twelve pipeline runs stay in the minutes on a single core.
func DefaultTableIII() TableIIIConfig {
	return TableIIIConfig{FileBytes: 24000, Coverages: []int{10, 50}, ErrorRate: 0.06, Seed: 5}
}

// QuickTableIII returns a unit-test-sized configuration.
func QuickTableIII() TableIIIConfig {
	return TableIIIConfig{FileBytes: 3000, Coverages: []int{10}, ErrorRate: 0.06, Seed: 5}
}

// TableIIIRow is one pipeline configuration's latency breakdown.
type TableIIIRow struct {
	Coverage     int
	Mode         cluster.SignatureMode
	Algorithm    string
	Stages       []obs.StageSnapshot // the run's core.Result.Stages
	ClusterStats cluster.Stats       // the run's clustering work
	Recovered    bool
}

// Busy returns the busy time the row's run spent in the named stage, or in
// all its stages together when stage is "".
func (r TableIIIRow) Busy(stage string) time.Duration {
	var d time.Duration
	for _, s := range r.Stages {
		if stage == "" || s.Stage == stage {
			d += time.Duration(s.BusyNanos)
		}
	}
	return d
}

// Label renders the row name as in the paper ("q-gram + DBMA").
func (r TableIIIRow) Label() string {
	short := map[string]string{
		"bma":              "BMA",
		"double-sided-bma": "DBMA",
		"needleman-wunsch": "NWA",
	}
	return fmt.Sprintf("%s + %s", r.Mode, short[r.Algorithm])
}

// TableIIIResult holds all rows grouped by coverage.
type TableIIIResult struct {
	Rows []TableIIIRow
}

// TableIII runs the full pipeline for every configuration and records the
// per-stage latency. The payload is a pseudo-random file of FileBytes.
func TableIII(cfg TableIIIConfig) (TableIIIResult, error) {
	rng := xrand.New(cfg.Seed)
	data := make([]byte, cfg.FileBytes)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	// Payload length 120 nt = 30 bytes per molecule, as in the paper.
	c, err := codec.NewCodec(codec.Params{N: 150, K: 120, PayloadBytes: 30, Seed: cfg.Seed})
	if err != nil {
		return TableIIIResult{}, err
	}
	var res TableIIIResult
	for _, coverage := range cfg.Coverages {
		for _, mode := range []cluster.SignatureMode{cluster.QGram, cluster.WGram} {
			for _, algo := range []recon.Algorithm{recon.BMA{}, recon.DoubleSidedBMA{}, recon.NW{}} {
				p := core.New(c,
					sim.Options{
						Channel:  sim.CalibratedIID(cfg.ErrorRate),
						Coverage: sim.FixedCoverage(coverage),
						Seed:     cfg.Seed + 1,
					},
					cluster.Options{Mode: mode, Seed: cfg.Seed + 2},
					algo)
				out, err := p.RunContext(context.Background(), data, core.RunOptions{})
				if err != nil {
					return res, fmt.Errorf("pipeline %s cov %d: %w", algo.Name(), coverage, err)
				}
				res.Rows = append(res.Rows, TableIIIRow{
					Coverage:     coverage,
					Mode:         mode,
					Algorithm:    algo.Name(),
					Stages:       out.Stages,
					ClusterStats: out.ClusterStats,
					Recovered:    out.Report.Clean() && string(out.Data) == string(data),
				})
			}
		}
	}
	return res, nil
}
