// Command experiments regenerates every table and figure of the paper's
// evaluation section as text tables (see DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results).
//
// Usage:
//
//	experiments -run all            # every experiment at paper scale
//	experiments -run tableII -quick # one experiment, test scale
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dnastore/internal/bench"
)

// writeCSV writes rows to dir/name, creating dir as needed. Errors abort:
// an experiment run with -csv that cannot write its data is useless.
func writeCSV(dir, name string, rows [][]string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		os.Exit(1)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		os.Exit(1)
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		os.Exit(1)
	}
}

// exitOn stops the run when the named experiment failed.
func exitOn(name string, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

func main() {
	run := flag.String("run", "all", "experiment: tableI, fig3, fig5, tableII, fig6, tableIII, gini, sweep, tableI-rnn, all (tableI-rnn is opt-in)")
	quick := flag.Bool("quick", false, "use small configurations (seconds instead of minutes)")
	csvDir := flag.String("csv", "", "also write raw series as CSV files into this directory (for plotting)")
	flag.Parse()

	selected := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		selected[strings.ToLower(strings.TrimSpace(name))] = true
	}
	want := func(name string) bool { return selected["all"] || selected[strings.ToLower(name)] }

	out := os.Stdout
	ran := 0

	if want("tableI") || want("fig3") {
		cfg := bench.DefaultTableI()
		if *quick {
			cfg = bench.QuickTableI()
		}
		start := time.Now()
		res, err := bench.TableI(cfg)
		exitOn("tableI", err)
		if want("tableI") {
			bench.RenderTableI(out, res)
			fmt.Fprintf(out, "(%d test strands, coverage %d, %.1fs)\n\n", cfg.TestStrands, cfg.Coverage, time.Since(start).Seconds())
			ran++
		}
		if want("fig3") {
			bench.RenderFig3(out, res)
			fmt.Fprintln(out)
			ran++
		}
		if *csvDir != "" {
			rows := [][]string{{"index", "rashtchian", "solqc", "rnn", "real"}}
			n := len(res.Rows[0].Profile)
			for i := 0; i < n; i++ {
				rows = append(rows, []string{
					strconv.Itoa(i),
					ftoa(res.Row("Rashtchian").Profile[i]),
					ftoa(res.Row("SOLQC").Profile[i]),
					ftoa(res.Row("RNN").Profile[i]),
					ftoa(res.Real().Profile[i]),
				})
			}
			writeCSV(*csvDir, "fig3.csv", rows)
		}
	}
	if want("fig5") {
		cfg := bench.DefaultFig5()
		if *quick {
			cfg.Strands = 150
		}
		res, err := bench.Fig5(cfg)
		exitOn("fig5", err)
		bench.RenderFig5(out, res)
		fmt.Fprintln(out)
		ran++
		if *csvDir != "" {
			rows := [][]string{{"distance", "count", "theta_low", "theta_high"}}
			for d, c := range res.Histogram {
				rows = append(rows, []string{strconv.Itoa(d), strconv.Itoa(c),
					strconv.Itoa(res.ThetaLow), strconv.Itoa(res.ThetaHigh)})
			}
			writeCSV(*csvDir, "fig5.csv", rows)
		}
	}
	if want("tableII") {
		cfg := bench.DefaultTableII()
		if *quick {
			cfg = bench.QuickTableII()
		}
		start := time.Now()
		res, err := bench.TableII(cfg)
		exitOn("tableII", err)
		bench.RenderTableII(out, res)
		fmt.Fprintf(out, "(%d strands, %d runs averaged, %.1fs)\n\n", cfg.Strands, cfg.Runs, time.Since(start).Seconds())
		ran++
	}
	if want("fig6") {
		cfg := bench.DefaultFig6()
		if *quick {
			cfg = bench.QuickFig6()
		}
		res, err := bench.Fig6(cfg)
		exitOn("fig6", err)
		bench.RenderFig6(out, res)
		fmt.Fprintln(out)
		ran++
		if *csvDir != "" {
			rows := [][]string{{"index", "bma", "dbma", "nw"}}
			n := len(res.Profiles["bma"])
			for i := 0; i < n; i++ {
				rows = append(rows, []string{strconv.Itoa(i),
					ftoa(res.Profiles["bma"][i]),
					ftoa(res.Profiles["double-sided-bma"][i]),
					ftoa(res.Profiles["needleman-wunsch"][i])})
			}
			writeCSV(*csvDir, "fig6.csv", rows)
		}
	}
	if want("tableIII") {
		cfg := bench.DefaultTableIII()
		if *quick {
			cfg = bench.QuickTableIII()
		}
		start := time.Now()
		res, err := bench.TableIII(cfg)
		exitOn("tableIII", err)
		bench.RenderTableIII(out, res)
		fmt.Fprintf(out, "(file %d bytes, %.1fs)\n\n", cfg.FileBytes, time.Since(start).Seconds())
		ran++
	}
	if selected["tablei-rnn"] { // opt-in: GRU training is minutes on CPU, excluded from "all"
		cfg := bench.DefaultTableIRNN()
		if *quick {
			cfg.TrainStrands, cfg.TestStrands = 150, 60
			cfg.StrandLen, cfg.Hidden, cfg.Epochs = 24, 20, 12
		}
		start := time.Now()
		res, err := bench.TableIRNN(cfg)
		exitOn("tableI-rnn", err)
		fmt.Fprintln(out, "TABLE I (GRU variant) — seq2seq simulator, demonstration scale")
		fmt.Fprintf(out, "%-8s", "")
		for _, row := range res.Rows {
			fmt.Fprintf(out, "%12s", row.Name)
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "%-8s", "(ii)")
		for _, row := range res.Rows {
			fmt.Fprintf(out, "%11.2f%%", 100*row.MeanErr)
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "%-8s", "(iv)")
		for _, row := range res.Rows {
			fmt.Fprintf(out, "%12d", row.Perfect)
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "training losses: %.3v (%.1fs)\n\n", res.Losses, time.Since(start).Seconds())
		ran++
	}
	if want("gini") {
		cfg := bench.DefaultGini()
		if *quick {
			cfg = bench.QuickGini()
		}
		res, err := bench.Gini(cfg)
		exitOn("gini", err)
		bench.RenderGini(out, res)
		fmt.Fprintln(out)
		ran++
	}
	if want("sweep") {
		cfg := bench.DefaultSweep()
		if *quick {
			cfg.Strands = 200
		}
		res, err := bench.Sweep(cfg)
		exitOn("sweep", err)
		bench.RenderSweep(out, res)
		fmt.Fprintln(out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from tableI, fig3, fig5, tableII, fig6, tableIII, gini, sweep, all\n", *run)
		os.Exit(2)
	}
}
