package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// RenderTableI writes Table I in the paper's layout.
func RenderTableI(w io.Writer, r TableIResult) {
	fmt.Fprintln(w, "TABLE I — simulator fidelity (double-sided BMA reconstruction)")
	fmt.Fprintf(w, "%-8s", "")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%12s", row.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "(ii)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%11.2f%%", 100*row.MeanErr)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "(iii)")
	for _, row := range r.Rows {
		if row.Name == "Real" {
			fmt.Fprintf(w, "%12s", "-")
		} else {
			fmt.Fprintf(w, "%11.2f%%", 100*row.MeanDev)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "(iv)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%12d", row.Perfect)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "raw")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%11.2f%%", 100*row.RawRate)
	}
	fmt.Fprintln(w)
}

// RenderFig3 writes the per-index error-rate curves as a coarse text plot
// (10-index buckets), one row per simulator.
func RenderFig3(w io.Writer, r TableIResult) {
	fmt.Fprintln(w, "FIG 3 — per-index reconstruction error rate (bucketed means, %)")
	if len(r.Rows) == 0 {
		return
	}
	n := len(r.Rows[0].Profile)
	bucket := 10
	fmt.Fprintf(w, "%-12s", "index")
	for b := 0; b < n; b += bucket {
		hi := b + bucket
		if hi > n {
			hi = n
		}
		fmt.Fprintf(w, "%8s", fmt.Sprintf("%d-%d", b, hi-1))
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s", row.Name)
		for b := 0; b < n; b += bucket {
			hi := b + bucket
			if hi > n {
				hi = n
			}
			s := 0.0
			for i := b; i < hi; i++ {
				s += row.Profile[i]
			}
			fmt.Fprintf(w, "%8.2f", 100*s/float64(hi-b))
		}
		fmt.Fprintln(w)
	}
}

// RenderTableII writes Table II in the paper's layout.
func RenderTableII(w io.Writer, r TableIIResult) {
	fmt.Fprintln(w, "TABLE II — q-gram vs w-gram clustering (coverage 10)")
	fmt.Fprintf(w, "%-7s %10s %10s %12s %12s %12s %12s %12s %12s\n",
		"err", "acc(q)", "acc(w)", "cluster(q)", "cluster(w)", "sig(q)", "sig(w)", "total(q)", "total(w)")
	seen := map[float64]bool{}
	for _, c := range r.Cells {
		if seen[c.ErrorRate] {
			continue
		}
		seen[c.ErrorRate] = true
		q := r.Cell(c.ErrorRate, 0)
		wg := r.Cell(c.ErrorRate, 1)
		fmt.Fprintf(w, "%-7.2f %10.4f %10.4f %12s %12s %12s %12s %12s %12s\n",
			c.ErrorRate, q.Accuracy, wg.Accuracy,
			fmtDur(q.ClusterTime), fmtDur(wg.ClusterTime),
			fmtDur(q.SignatureTime), fmtDur(wg.SignatureTime),
			fmtDur(q.OverallTime), fmtDur(wg.OverallTime))
	}
}

// RenderFig5 writes the threshold histogram as a text bar chart.
func RenderFig5(w io.Writer, r Fig5Result) {
	fmt.Fprintf(w, "FIG 5 — signature-distance histogram (θ_low=%d, θ_high=%d)\n", r.ThetaLow, r.ThetaHigh)
	peak := 0
	for _, c := range r.Histogram {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		return
	}
	for d, c := range r.Histogram {
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", 1+c*60/peak)
		marker := "  "
		if d == r.ThetaLow {
			marker = "L>"
		}
		if d == r.ThetaHigh {
			marker = "H>"
		}
		fmt.Fprintf(w, "%s %4d |%s %d\n", marker, d, bar, c)
	}
}

// RenderFig6 writes the reconstruction profiles as bucketed text rows.
func RenderFig6(w io.Writer, r Fig6Result) {
	fmt.Fprintln(w, "FIG 6 — per-index error rate by reconstruction algorithm (bucketed means, %)")
	if len(r.Names) == 0 {
		return
	}
	n := len(r.Profiles[r.Names[0]])
	bucket := 10
	fmt.Fprintf(w, "%-18s", "index")
	for b := 0; b < n; b += bucket {
		hi := b + bucket
		if hi > n {
			hi = n
		}
		fmt.Fprintf(w, "%8s", fmt.Sprintf("%d-%d", b, hi-1))
	}
	fmt.Fprintf(w, "%10s%10s%10s\n", "peak", "perfect", "mean-ed")
	for _, name := range r.Names {
		p := r.Profiles[name]
		fmt.Fprintf(w, "%-18s", name)
		for b := 0; b < n; b += bucket {
			hi := b + bucket
			if hi > n {
				hi = n
			}
			s := 0.0
			for i := b; i < hi; i++ {
				s += p[i]
			}
			fmt.Fprintf(w, "%8.2f", 100*s/float64(hi-b))
		}
		fmt.Fprintf(w, "%10.2f%10d%10.2f\n", 100*r.Peak(name), r.Perfect[name], r.MeanEdit[name])
	}
}

// RenderTableIII writes Table III in the paper's layout.
func RenderTableIII(w io.Writer, r TableIIIResult) {
	fmt.Fprintln(w, "TABLE III — pipeline latency breakdown (payload 120 nt, error 6%)")
	fmt.Fprintf(w, "%-18s %10s %12s %12s %10s %10s %6s\n",
		"pipeline", "encode", "cluster", "recon", "decode", "total", "ok")
	last := -1
	for _, row := range r.Rows {
		if row.Coverage != last {
			fmt.Fprintf(w, "-- coverage = %d --\n", row.Coverage)
			last = row.Coverage
		}
		fmt.Fprintf(w, "%-18s %10s %12s %12s %10s %10s %6v\n",
			row.Label(),
			fmtDur(row.Busy("encode")), fmtDur(row.Busy("cluster")),
			fmtDur(row.Busy("reconstruct")), fmtDur(row.Busy("decode")),
			fmtDur(row.Busy("")), row.Recovered)
	}
}

// RenderGini writes the Gini-vs-baseline ablation table.
func RenderGini(w io.Writer, r GiniResult) {
	fmt.Fprintln(w, "ABLATION — baseline vs Gini layout (double-sided BMA, ideal clusters)")
	fmt.Fprintf(w, "%-10s %14s %14s %14s %14s\n",
		"coverage", "failed(base)", "failed(gini)", "recov(base)", "recov(gini)")
	seen := map[int]bool{}
	for _, c := range r.Cells {
		if seen[c.Coverage] {
			continue
		}
		seen[c.Coverage] = true
		base := r.Cell("baseline", c.Coverage)
		gini := r.Cell("gini", c.Coverage)
		fmt.Fprintf(w, "%-10d %14.1f %14.1f %14.2f %14.2f\n",
			c.Coverage, base.FailedCodewords, gini.FailedCodewords, base.Recovered, gini.Recovered)
	}
}

// RenderSweep writes the straggler-sweep ablation.
func RenderSweep(w io.Writer, r SweepResult) {
	fmt.Fprintln(w, "ABLATION — clustering straggler sweep")
	fmt.Fprintf(w, "%-10s %10s %12s %12s\n", "sweep", "accuracy", "edit-calls", "time")
	fmt.Fprintf(w, "%-10s %10.4f %12d %12s\n", "on", r.With.Accuracy, r.With.EditCalls, fmtDur(r.With.Time))
	fmt.Fprintf(w, "%-10s %10.4f %12d %12s\n", "off", r.Without.Accuracy, r.Without.EditCalls, fmtDur(r.Without.Time))
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
