package recon

import (
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// scratchAlgorithms is every algorithm that promises a scratch-threaded path.
var scratchAlgorithms = []ScratchReconstructor{BMA{}, DoubleSidedBMA{}, NW{}, Adaptive{}}

// TestDegenerateClusters pins the edge-case contract for every algorithm:
// clusters with no reads, only empty reads, or a non-positive target length
// reconstruct to nil — deterministically, without panicking — through both
// the plain and the scratch entry points.
func TestDegenerateClusters(t *testing.T) {
	short := dna.MustFromString("AC") // shorter than the BMA lookahead window
	cases := []struct {
		name      string
		reads     []dna.Seq
		targetLen int
	}{
		{"nil reads", nil, 50},
		{"zero reads", []dna.Seq{}, 50},
		{"one empty read", []dna.Seq{nil}, 50},
		{"all empty reads", []dna.Seq{nil, {}, nil}, 50},
		{"zero targetLen", []dna.Seq{short, short}, 0},
		{"negative targetLen", []dna.Seq{short, short}, -7},
	}
	var sc Scratch
	for _, algo := range scratchAlgorithms {
		for _, tc := range cases {
			if got := algo.Reconstruct(tc.reads, tc.targetLen); got != nil {
				t.Errorf("%s/%s: Reconstruct = %v, want nil", algo.Name(), tc.name, got)
			}
			if got := algo.ReconstructScratch(&sc, tc.reads, tc.targetLen); got != nil {
				t.Errorf("%s/%s: ReconstructScratch = %v, want nil", algo.Name(), tc.name, got)
			}
		}
	}
}

// TestReadsShorterThanLookahead pins that reads shorter than the BMA
// lookahead window reconstruct without panicking and still vote: the output
// never exceeds targetLen and a unanimous short cluster returns its reads'
// prefix.
func TestReadsShorterThanLookahead(t *testing.T) {
	short := dna.MustFromString("AC")
	reads := []dna.Seq{short.Clone(), short.Clone(), short.Clone()}
	var sc Scratch
	for _, algo := range scratchAlgorithms {
		got := algo.Reconstruct(reads, 50)
		if len(got) > 50 {
			t.Errorf("%s: %d bases for targetLen 50", algo.Name(), len(got))
		}
		if len(got) < 2 || got[0] != short[0] || got[1] != short[1] {
			t.Errorf("%s: unanimous short cluster gave %v", algo.Name(), got)
		}
		if s := algo.ReconstructScratch(&sc, reads, 50); !s.Equal(got) {
			t.Errorf("%s: scratch path diverges on short reads: %v vs %v", algo.Name(), s, got)
		}
	}
	// targetLen 1 with a single one-base read: the smallest non-degenerate
	// cluster must round-trip for every algorithm.
	one := dna.Seq{dna.G}
	for _, algo := range scratchAlgorithms {
		if got := algo.Reconstruct([]dna.Seq{one}, 1); !got.Equal(one) {
			t.Errorf("%s: single-base cluster gave %v", algo.Name(), got)
		}
	}
}

// TestScratchMatchesPlain is the allocation-refactor pin: reusing one
// Scratch across many clusters must give bit-identical output to the plain
// per-call entry points, for every algorithm, including clusters that mix in
// junk and empty reads.
func TestScratchMatchesPlain(t *testing.T) {
	rng := xrand.New(41)
	var sc Scratch
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(120)
		ref := dna.Random(rng, n)
		ch := sim.CalibratedIID(0.02 + 0.1*rng.Float64())
		var reads []dna.Seq
		for c := 0; c < 2+rng.Intn(8); c++ {
			reads = append(reads, ch.Transmit(rng, ref))
		}
		if trial%3 == 0 {
			reads = append(reads, nil, dna.Random(rng, n/2))
		}
		for _, algo := range scratchAlgorithms {
			want := algo.Reconstruct(reads, n)
			got := algo.ReconstructScratch(&sc, reads, n)
			if !got.Equal(want) {
				t.Fatalf("trial %d %s: scratch output diverges\n got=%v\nwant=%v", trial, algo.Name(), got, want)
			}
		}
	}
}

// TestAdaptiveDispatch pins the dispatcher's two paths: a clean cluster is
// handled by BMA (bit-identical output, no POA), a cluster of mutually
// disagreeing reads falls back to the NW consensus (bit-identical to NW's).
func TestAdaptiveDispatch(t *testing.T) {
	rng := xrand.New(42)
	ref := dna.Random(rng, 110)
	clean := []dna.Seq{ref.Clone(), ref.Clone(), ref.Clone(), ref.Clone()}
	var sc Scratch
	a := Adaptive{}

	got, usedPOA := a.reconstruct(&sc, clean, len(ref))
	if usedPOA {
		t.Fatal("clean cluster was sent to the POA path")
	}
	if want := (BMA{}).Reconstruct(clean, len(ref)); !got.Equal(want) {
		t.Fatalf("accepted consensus differs from BMA: %v vs %v", got, want)
	}

	// Mutually unrelated reads: no consensus can be within the agreement
	// radius of all of them, so the dispatcher must pay for POA.
	junk := []dna.Seq{dna.Random(rng, 110), dna.Random(rng, 110), dna.Random(rng, 110)}
	got, usedPOA = a.reconstruct(&sc, junk, 110)
	if !usedPOA {
		t.Fatal("disagreeing cluster was not sent to the POA path")
	}
	if want := (NW{}).Reconstruct(junk, 110); !got.Equal(want) {
		t.Fatalf("fallback consensus differs from NW: %v vs %v", got, want)
	}
}

// TestAdaptiveAccuracyAtNoise guards the dispatch policy end to end: at the
// operating point of Fig. 6 the adaptive algorithm must reconstruct at least
// as many clusters perfectly as plain BMA (the check can only reject BMA
// consensuses, never degrade them).
func TestAdaptiveAccuracyAtNoise(t *testing.T) {
	refs, clusters := makeClusters(43, 80, 110, 8, 0.06)
	bma := PerfectCount(refs, reconstructAll(t, clusters, 110, BMA{}, 0))
	adaptive := PerfectCount(refs, reconstructAll(t, clusters, 110, Adaptive{}, 0))
	if adaptive < bma {
		t.Fatalf("adaptive %d/80 perfect, below plain BMA %d/80", adaptive, bma)
	}
}
