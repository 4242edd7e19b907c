package bench

import (
	"strings"
	"testing"
)

func TestGiniAblationShape(t *testing.T) {
	res, err := Gini(QuickGini())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells", len(res.Cells))
	}
	// In the transition band, Gini must fail fewer codewords than baseline
	// (the §IV-B claim: equal copies, more reliable correction).
	for _, cov := range []int{7, 8} {
		base := res.Cell("baseline", cov)
		gini := res.Cell("gini", cov)
		if gini.FailedCodewords > base.FailedCodewords {
			t.Errorf("gini failed %v codewords vs baseline %v at coverage %d",
				gini.FailedCodewords, base.FailedCodewords, cov)
		}
	}
	// Gini should reach full recovery at a coverage where baseline doesn't.
	if res.Cell("gini", 8).Recovered <= res.Cell("baseline", 8).Recovered {
		t.Errorf("no Gini recovery advantage at coverage 8: %+v", res.Cells)
	}
}

func TestSweepAblationShape(t *testing.T) {
	cfg := DefaultSweep()
	cfg.Strands = 200
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.With.SweepEnabled || res.Without.SweepEnabled {
		t.Fatal("cells mislabelled")
	}
	if res.With.Accuracy <= res.Without.Accuracy {
		t.Errorf("sweep did not improve accuracy: with %v, without %v",
			res.With.Accuracy, res.Without.Accuracy)
	}
	if res.With.EditCalls <= res.Without.EditCalls {
		t.Errorf("sweep reported no extra edit-distance calls: %d vs %d",
			res.With.EditCalls, res.Without.EditCalls)
	}
}

func TestAblationRenderers(t *testing.T) {
	var sb strings.Builder
	res, err := Gini(QuickGini())
	if err != nil {
		t.Fatal(err)
	}
	RenderGini(&sb, res)
	cfg := DefaultSweep()
	cfg.Strands = 120
	sw, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RenderSweep(&sb, sw)
	out := sb.String()
	for _, want := range []string{"Gini layout", "straggler sweep", "recov(gini)", "edit-calls"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation rendering missing %q", want)
		}
	}
}
