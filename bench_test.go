// Benchmarks regenerating every table and figure of the paper's evaluation
// (ISPASS'24, §V–§IX). Each benchmark delegates to the shared harness in
// internal/bench and attaches the experiment's headline numbers as custom
// metrics, so `go test -bench=. -benchmem` doubles as a reproduction run.
// The cmd/experiments binary renders the same experiments as full text
// tables at paper scale; EXPERIMENTS.md records paper-vs-measured values.
package dnastore_test

import (
	"testing"

	"dnastore/internal/bench"
	"dnastore/internal/cluster"
)

// benchTableIConfig is mid-scale: big enough for stable Table I numbers,
// small enough that -bench=. completes in minutes.
func benchTableIConfig() bench.TableIConfig {
	cfg := bench.DefaultTableI()
	cfg.TrainStrands, cfg.TestStrands = 800, 400
	return cfg
}

// BenchmarkTableI_SimulatorFidelity reproduces Table I: metrics (ii)–(iv)
// for the Rashtchian IID channel, the SOLQC-style channel, the data-driven
// simulator ("RNN" column) and the reference wetlab ("Real").
func BenchmarkTableI_SimulatorFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.TableI(benchTableIConfig())
		if err != nil {
			b.Fatal(err)
		}
		real := res.Real()
		b.ReportMetric(100*res.Row("Rashtchian").MeanErr, "ii-iid-%")
		b.ReportMetric(100*res.Row("SOLQC").MeanErr, "ii-solqc-%")
		b.ReportMetric(100*res.Row("RNN").MeanErr, "ii-rnn-%")
		b.ReportMetric(100*real.MeanErr, "ii-real-%")
		b.ReportMetric(100*res.Row("Rashtchian").MeanDev, "iii-iid-%")
		b.ReportMetric(100*res.Row("RNN").MeanDev, "iii-rnn-%")
		b.ReportMetric(float64(res.Row("RNN").Perfect), "iv-rnn")
		b.ReportMetric(float64(real.Perfect), "iv-real")
	}
}

// BenchmarkFig3_PerIndexError reproduces Fig. 3: the per-index error-rate
// profile of double-sided BMA reconstruction on each simulator vs real
// data. The reported metric is each simulator's profile deviation from the
// real profile — the quantity the figure lets the reader eyeball.
func BenchmarkFig3_PerIndexError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.TableI(benchTableIConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Row("Rashtchian").MeanDev, "dev-iid-%")
		b.ReportMetric(100*res.Row("SOLQC").MeanDev, "dev-solqc-%")
		b.ReportMetric(100*res.Row("RNN").MeanDev, "dev-rnn-%")
	}
}

// BenchmarkFig5_AutoThreshold reproduces Fig. 5: the signature-distance
// histogram from which θ_low and θ_high are derived automatically.
func BenchmarkFig5_AutoThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig5(bench.DefaultFig5())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ThetaLow), "theta-low")
		b.ReportMetric(float64(res.ThetaHigh), "theta-high")
	}
}

// BenchmarkTableII_Clustering reproduces Table II: q-gram vs w-gram
// accuracy and runtime at coverage 10 across error rates 3%–15%, for the
// bare multi-round algorithm (the paper's setup; the straggler-sweep
// extension is measured by BenchmarkAblation_StragglerSweep).
func BenchmarkTableII_Clustering(b *testing.B) {
	cfg := bench.DefaultTableII()
	cfg.Strands = 400
	cfg.Runs = 1
	for i := 0; i < b.N; i++ {
		res, err := bench.TableII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cell(0.03, cluster.QGram).Accuracy, "acc-q-3%")
		b.ReportMetric(res.Cell(0.03, cluster.WGram).Accuracy, "acc-w-3%")
		b.ReportMetric(res.Cell(0.15, cluster.QGram).Accuracy, "acc-q-15%")
		b.ReportMetric(res.Cell(0.15, cluster.WGram).Accuracy, "acc-w-15%")
		b.ReportMetric(res.Cell(0.15, cluster.QGram).OverallTime.Seconds(), "time-q-15%-s")
		b.ReportMetric(res.Cell(0.15, cluster.WGram).OverallTime.Seconds(), "time-w-15%-s")
	}
}

// BenchmarkFig6_Reconstruction reproduces Fig. 6: the per-index error
// profiles of BMA, double-sided BMA and Needleman–Wunsch. Reported metrics
// are the peak error of each profile — BMA peaks at the end, DBMA in the
// middle with a lower peak, NW lowest.
func BenchmarkFig6_Reconstruction(b *testing.B) {
	cfg := bench.DefaultFig6()
	cfg.Clusters = 400
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Peak("bma"), "peak-bma-%")
		b.ReportMetric(100*res.Peak("double-sided-bma"), "peak-dbma-%")
		b.ReportMetric(100*res.Peak("needleman-wunsch"), "peak-nw-%")
	}
}

// BenchmarkTableIII_Latency reproduces Table III: the per-module latency
// breakdown of the six pipeline configurations at coverage 10 (the
// coverage-50 rows run via cmd/experiments, where minutes-long runs are
// acceptable). Reported metrics: clustering seconds plus reconstruction
// seconds per algorithm — see EXPERIMENTS.md for which latency shapes
// reproduce and which are implementation artifacts of the paper's tools.
func BenchmarkTableIII_Latency(b *testing.B) {
	cfg := bench.DefaultTableIII()
	cfg.FileBytes = 20000
	cfg.Coverages = []int{10}
	for i := 0; i < b.N; i++ {
		res, err := bench.TableIII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Mode != cluster.QGram {
				continue
			}
			switch row.Algorithm {
			case "bma":
				b.ReportMetric(row.Busy("reconstruct").Seconds(), "recon-bma-s")
				b.ReportMetric(row.Busy("cluster").Seconds(), "cluster-s")
			case "double-sided-bma":
				b.ReportMetric(row.Busy("reconstruct").Seconds(), "recon-dbma-s")
			case "needleman-wunsch":
				b.ReportMetric(row.Busy("reconstruct").Seconds(), "recon-nwa-s")
			}
		}
	}
}

// BenchmarkAblation_GiniLayout quantifies the §IV-B design choice: at equal
// coverage in the transition band, the Gini layout fails fewer codewords
// and recovers files the baseline layout cannot.
func BenchmarkAblation_GiniLayout(b *testing.B) {
	cfg := bench.QuickGini()
	for i := 0; i < b.N; i++ {
		res, err := bench.Gini(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cell("baseline", 8).FailedCodewords, "failed-base")
		b.ReportMetric(res.Cell("gini", 8).FailedCodewords, "failed-gini")
		b.ReportMetric(res.Cell("baseline", 8).Recovered, "recov-base")
		b.ReportMetric(res.Cell("gini", 8).Recovered, "recov-gini")
	}
}

// BenchmarkAblation_StragglerSweep quantifies this reproduction's addition
// to the clustering algorithm (DESIGN.md): accuracy gained vs extra
// edit-distance calls at a high error rate.
func BenchmarkAblation_StragglerSweep(b *testing.B) {
	cfg := bench.DefaultSweep()
	cfg.Strands = 300
	for i := 0; i < b.N; i++ {
		res, err := bench.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.With.Accuracy, "acc-sweep-on")
		b.ReportMetric(res.Without.Accuracy, "acc-sweep-off")
		b.ReportMetric(float64(res.With.EditCalls-res.Without.EditCalls), "extra-edit-calls")
	}
}
