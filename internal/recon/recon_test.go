package recon

import (
	"context"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// makeClusters builds numClusters reference strands and noisy clusters of
// the given coverage at an IID error rate.
func makeClusters(seed uint64, numClusters, length, coverage int, rate float64) ([]dna.Seq, [][]dna.Seq) {
	rng := xrand.New(seed)
	refs := make([]dna.Seq, numClusters)
	clusters := make([][]dna.Seq, numClusters)
	ch := sim.CalibratedIID(rate)
	for i := range refs {
		refs[i] = dna.Random(rng, length)
		for c := 0; c < coverage; c++ {
			clusters[i] = append(clusters[i], ch.Transmit(rng, refs[i]))
		}
	}
	return refs, clusters
}

var algorithms = []Algorithm{BMA{}, DoubleSidedBMA{}, NW{}, Adaptive{}}

// reconstructAll runs ReconstructAllContext on a background context and
// fails the test on its error.
func reconstructAll(t testing.TB, clusters [][]dna.Seq, targetLen int, algo Algorithm, workers int) []dna.Seq {
	t.Helper()
	out, err := ReconstructAllContext(context.Background(), clusters, targetLen, algo, workers)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCleanClusterIsIdentity(t *testing.T) {
	rng := xrand.New(1)
	ref := dna.Random(rng, 100)
	cluster := []dna.Seq{ref.Clone(), ref.Clone(), ref.Clone()}
	for _, algo := range algorithms {
		got := algo.Reconstruct(cluster, len(ref))
		if !got.Equal(ref) {
			t.Errorf("%s: clean cluster not reproduced", algo.Name())
		}
	}
}

func TestSingleReadCluster(t *testing.T) {
	rng := xrand.New(2)
	ref := dna.Random(rng, 80)
	for _, algo := range algorithms {
		got := algo.Reconstruct([]dna.Seq{ref.Clone()}, len(ref))
		if !got.Equal(ref) {
			t.Errorf("%s: singleton cluster should return the read", algo.Name())
		}
	}
}

func TestEmptyCluster(t *testing.T) {
	for _, algo := range algorithms {
		if got := algo.Reconstruct(nil, 50); len(got) != 0 {
			t.Errorf("%s: empty cluster gave %d bases", algo.Name(), len(got))
		}
	}
}

func TestSubstitutionsOutvoted(t *testing.T) {
	rng := xrand.New(3)
	ref := dna.Random(rng, 100)
	var cluster []dna.Seq
	for c := 0; c < 7; c++ {
		read := ref.Clone()
		// one unique substitution per read
		pos := 10 + c*12
		read[pos] ^= 1
		cluster = append(cluster, read)
	}
	for _, algo := range algorithms {
		got := algo.Reconstruct(cluster, len(ref))
		if !got.Equal(ref) {
			t.Errorf("%s: substitutions not outvoted", algo.Name())
		}
	}
}

func TestIndelsRealigned(t *testing.T) {
	rng := xrand.New(4)
	ref := dna.Random(rng, 100)
	cluster := []dna.Seq{ref.Clone()}
	// read with a deletion at 30
	del := append(ref[:30:30].Clone(), ref[31:]...)
	// read with an insertion at 60
	ins := append(ref[:60:60].Clone(), append(dna.Seq{ref[60].Complement()}, ref[60:]...)...)
	cluster = append(cluster, del, ins, ref.Clone())
	for _, algo := range algorithms {
		got := algo.Reconstruct(cluster, len(ref))
		if !got.Equal(ref) {
			t.Errorf("%s: indel cluster = %v", algo.Name(), got)
		}
	}
}

func TestRecoveryAtModerateNoise(t *testing.T) {
	refs, clusters := makeClusters(5, 40, 110, 10, 0.06)
	for _, algo := range algorithms {
		recons := reconstructAll(t, clusters, 110, algo, 0)
		perfect := PerfectCount(refs, recons)
		if perfect < 25 {
			t.Errorf("%s: only %d/40 perfect at 6%% error, coverage 10", algo.Name(), perfect)
		}
	}
}

func TestNWBestAtHighNoise(t *testing.T) {
	refs, clusters := makeClusters(6, 60, 110, 10, 0.10)
	perfect := map[string]int{}
	for _, algo := range algorithms {
		recons := reconstructAll(t, clusters, 110, algo, 0)
		perfect[algo.Name()] = PerfectCount(refs, recons)
	}
	if perfect["needleman-wunsch"] < perfect["bma"] {
		t.Errorf("NW (%d) worse than BMA (%d) at 10%% error", perfect["needleman-wunsch"], perfect["bma"])
	}
}

func TestBMAErrorsGrowWithIndex(t *testing.T) {
	// §VII-A: misalignments propagate, so later indexes are less reliable.
	refs, clusters := makeClusters(7, 150, 120, 6, 0.08)
	recons := reconstructAll(t, clusters, 120, BMA{}, 0)
	profile := ErrorProfile(refs, recons, 120)
	head := MeanErrorRate(profile[:30])
	tail := MeanErrorRate(profile[90:])
	if tail <= head*1.5 {
		t.Errorf("BMA error did not grow along the strand: head %v tail %v", head, tail)
	}
}

func TestDoubleSidedConcentratesErrorsInMiddle(t *testing.T) {
	// §VII-B / Fig. 6: DBMA halves propagate only to the middle.
	refs, clusters := makeClusters(8, 150, 120, 6, 0.08)
	recons := reconstructAll(t, clusters, 120, DoubleSidedBMA{}, 0)
	profile := ErrorProfile(refs, recons, 120)
	edges := (MeanErrorRate(profile[:30]) + MeanErrorRate(profile[90:])) / 2
	middle := MeanErrorRate(profile[45:75])
	if middle <= edges*1.5 {
		t.Errorf("DBMA errors not concentrated in middle: edges %v middle %v", edges, middle)
	}
}

func TestNWFlatterThanBMA(t *testing.T) {
	// Fig. 6: the NW profile has a lower peak than both BMA variants.
	refs, clusters := makeClusters(9, 150, 120, 6, 0.08)
	peak := func(algo Algorithm) float64 {
		recons := reconstructAll(t, clusters, 120, algo, 0)
		profile := ErrorProfile(refs, recons, 120)
		p := 0.0
		for _, v := range profile {
			if v > p {
				p = v
			}
		}
		return p
	}
	nw, bma, dbma := peak(NW{}), peak(BMA{}), peak(DoubleSidedBMA{})
	if nw >= bma || nw >= dbma {
		t.Errorf("NW peak %v not below BMA %v / DBMA %v", nw, bma, dbma)
	}
}

func TestReconstructAllOrderAndNil(t *testing.T) {
	refs, clusters := makeClusters(10, 10, 60, 5, 0.03)
	clusters[3] = nil
	recons := reconstructAll(t, clusters, 60, NW{}, 2)
	if len(recons) != 10 {
		t.Fatalf("got %d outputs", len(recons))
	}
	if recons[3] != nil {
		t.Fatal("empty cluster should reconstruct to nil")
	}
	if !recons[0].Equal(refs[0]) {
		t.Fatal("cluster order not preserved")
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := map[string]bool{}
	for _, a := range algorithms {
		names[a.Name()] = true
	}
	if len(names) != len(algorithms) {
		t.Fatalf("algorithm names not distinct: %v", names)
	}
}

func TestErrorProfileAndMetrics(t *testing.T) {
	refs := []dna.Seq{dna.MustFromString("ACGT"), dna.MustFromString("ACGT")}
	recons := []dna.Seq{dna.MustFromString("ACGT"), dna.MustFromString("ACTT")}
	profile := ErrorProfile(refs, recons, 4)
	want := []float64{0, 0, 0.5, 0}
	for i := range want {
		if profile[i] != want[i] {
			t.Fatalf("profile = %v", profile)
		}
	}
	if MeanErrorRate(profile) != 0.125 {
		t.Fatalf("mean = %v", MeanErrorRate(profile))
	}
	if PerfectCount(refs, recons) != 1 {
		t.Fatal("perfect count")
	}
	if d := MeanAbsDeviation([]float64{0.2, 0.4}, []float64{0.1, 0.6}); d < 0.1499 || d > 0.1501 {
		t.Fatalf("MAD = %v", d)
	}
}

func TestErrorProfileShortReconstruction(t *testing.T) {
	refs := []dna.Seq{dna.MustFromString("ACGTACGT")}
	recons := []dna.Seq{dna.MustFromString("ACGT")}
	profile := ErrorProfile(refs, recons, 8)
	for i := 4; i < 8; i++ {
		if profile[i] != 1 {
			t.Fatalf("missing indexes should count as errors: %v", profile)
		}
	}
}

func TestMetricsEmptyInputs(t *testing.T) {
	if MeanErrorRate(nil) != 0 {
		t.Fatal("MeanErrorRate(nil)")
	}
	if MeanAbsDeviation(nil, nil) != 0 {
		t.Fatal("MAD(nil)")
	}
	if PerfectCount(nil, nil) != 0 {
		t.Fatal("PerfectCount(nil)")
	}
	p := ErrorProfile(nil, nil, 5)
	for _, v := range p {
		if v != 0 {
			t.Fatal("profile of nothing")
		}
	}
}

func BenchmarkBMACoverage10(b *testing.B) {
	_, clusters := makeClusters(11, 20, 110, 10, 0.06)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reconstructAll(b, clusters, 110, BMA{}, 0)
	}
}

func BenchmarkDBMACoverage10(b *testing.B) {
	_, clusters := makeClusters(11, 20, 110, 10, 0.06)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reconstructAll(b, clusters, 110, DoubleSidedBMA{}, 0)
	}
}

func BenchmarkNWCoverage10(b *testing.B) {
	_, clusters := makeClusters(11, 20, 110, 10, 0.06)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reconstructAll(b, clusters, 110, NW{}, 0)
	}
}

func TestMeanEditDistance(t *testing.T) {
	refs := []dna.Seq{
		dna.MustFromString("ACGTACGT"),
		dna.MustFromString("AAAACCCC"),
		dna.MustFromString("GGGG"),
	}
	recons := []dna.Seq{
		dna.MustFromString("ACGTACGT"), // exact: 0
		dna.MustFromString("AAACCCC"),  // one deletion: 1
		dna.MustFromString("GGTG"),     // one substitution: 1
	}
	if got, want := MeanEditDistance(refs, recons), 2.0/3.0; got != want {
		t.Fatalf("MeanEditDistance = %v, want %v", got, want)
	}
	if got := MeanEditDistance(nil, nil); got != 0 {
		t.Fatalf("empty input should give 0, got %v", got)
	}
	// Mismatched lengths: only the common prefix of strand pairs counts.
	if got := MeanEditDistance(refs[:1], recons); got != 0 {
		t.Fatalf("single exact pair should give 0, got %v", got)
	}
}
