package cluster

import (
	"context"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// makePool generates numStrands random strands, pushes them through an IID
// channel at the given rate with fixed coverage, and returns reads+origins.
func makePool(t testing.TB, seed uint64, numStrands, length, coverage int, rate float64) ([]dna.Seq, []int) {
	t.Helper()
	rng := xrand.New(seed)
	strands := make([]dna.Seq, numStrands)
	for i := range strands {
		strands[i] = dna.Random(rng, length)
	}
	reads, err := sim.SimulatePoolContext(context.Background(), strands, sim.Options{
		Channel:  sim.CalibratedIID(rate),
		Coverage: sim.FixedCoverage(coverage),
		Seed:     seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	origins := make([]int, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
		origins[i] = r.Origin
	}
	return seqs, origins
}

// mustCluster runs ClusterContext under a background context, failing the
// test on error.
func mustCluster(t testing.TB, reads []dna.Seq, opts Options) Result {
	t.Helper()
	res, err := ClusterContext(context.Background(), reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustSharded is mustCluster for ShardedContext.
func mustSharded(t testing.TB, reads []dna.Seq, shards int, opts Options) Result {
	t.Helper()
	res, err := ShardedContext(context.Background(), reads, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestClusterEmptyInput(t *testing.T) {
	res := mustCluster(t, nil, Options{})
	if len(res.Clusters) != 0 {
		t.Fatal("empty input should give no clusters")
	}
}

func TestClusterSingleRead(t *testing.T) {
	res := mustCluster(t, []dna.Seq{dna.MustFromString("ACGTACGTACGT")}, Options{Seed: 1})
	if len(res.Clusters) != 1 || len(res.Clusters[0]) != 1 {
		t.Fatalf("got %v", res.Clusters)
	}
}

func TestClusterRecoversLowNoise(t *testing.T) {
	reads, origins := makePool(t, 2, 80, 110, 8, 0.03)
	res := mustCluster(t, reads, Options{Seed: 3})
	acc := Accuracy(res.Clusters, origins, 0.9, 80)
	if acc < 0.95 {
		t.Fatalf("accuracy %v at 3%% error", acc)
	}
}

func TestClusterRecoversModerateNoise(t *testing.T) {
	reads, origins := makePool(t, 4, 80, 110, 8, 0.09)
	res := mustCluster(t, reads, Options{Seed: 5})
	acc := Accuracy(res.Clusters, origins, 0.9, 80)
	if acc < 0.85 {
		t.Fatalf("accuracy %v at 9%% error", acc)
	}
}

func TestClusterWGramMode(t *testing.T) {
	reads, origins := makePool(t, 6, 80, 110, 8, 0.09)
	res := mustCluster(t, reads, Options{Seed: 7, Mode: WGram})
	acc := Accuracy(res.Clusters, origins, 0.9, 80)
	if acc < 0.85 {
		t.Fatalf("w-gram accuracy %v at 9%% error", acc)
	}
}

func TestClusterDeterministic(t *testing.T) {
	reads, _ := makePool(t, 8, 40, 100, 5, 0.06)
	a := mustCluster(t, reads, Options{Seed: 9})
	b := mustCluster(t, reads, Options{Seed: 9})
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a.Clusters), len(b.Clusters))
	}
	for i := range a.Clusters {
		if len(a.Clusters[i]) != len(b.Clusters[i]) {
			t.Fatalf("cluster %d sizes differ", i)
		}
		for j := range a.Clusters[i] {
			if a.Clusters[i][j] != b.Clusters[i][j] {
				t.Fatalf("cluster %d differs at %d", i, j)
			}
		}
	}
}

func TestClusterPartitionsCoverAllReads(t *testing.T) {
	reads, _ := makePool(t, 10, 50, 100, 6, 0.06)
	res := mustCluster(t, reads, Options{Seed: 11})
	seen := make([]bool, len(reads))
	for _, c := range res.Clusters {
		for _, r := range c {
			if seen[r] {
				t.Fatalf("read %d in two clusters", r)
			}
			seen[r] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("read %d missing from output", i)
		}
	}
}

func TestClusterStatsPopulated(t *testing.T) {
	reads, _ := makePool(t, 12, 60, 100, 6, 0.06)
	res := mustCluster(t, reads, Options{Seed: 13})
	st := res.Stats
	if st.Rounds == 0 || st.Merges == 0 {
		t.Fatalf("stats look empty: %+v", st)
	}
	if st.ThetaHigh <= st.ThetaLow {
		t.Fatalf("thresholds inverted: %+v", st)
	}
	if st.SignatureTime <= 0 || st.ClusterTime <= 0 {
		t.Fatalf("timers not populated: %+v", st)
	}
}

func TestClusterAvoidsEditDistanceMostly(t *testing.T) {
	// The whole point of the signature filter: edit-distance calls must be
	// far fewer than the total pairwise comparisons.
	reads, _ := makePool(t, 14, 100, 110, 8, 0.06)
	res := mustCluster(t, reads, Options{Seed: 15})
	n := len(reads)
	if res.Stats.EditDistanceCalls > n*n/20 {
		t.Fatalf("%d edit-distance calls for %d reads", res.Stats.EditDistanceCalls, n)
	}
}

func TestWGramSignatureDistancesSeparateMore(t *testing.T) {
	// §VI-C: w-gram signatures push different-origin representatives
	// further apart (relative to same-origin distances) than q-gram bits.
	reads, origins := makePool(t, 16, 60, 110, 4, 0.06)
	rng := xrand.New(17)
	qg := newGramSet(rng, QGram, 48, 4)
	wg := newGramSet(rng, WGram, 48, 4)
	ratio := func(gs gramSet) float64 {
		var same, diff, nSame, nDiff float64
		for i := 0; i < len(reads); i += 3 {
			for j := i + 1; j < len(reads); j += 5 {
				d := float64(gs.distance(gs.signature(reads[i]), gs.signature(reads[j])))
				if origins[i] == origins[j] {
					same += d
					nSame++
				} else {
					diff += d
					nDiff++
				}
			}
		}
		if nSame == 0 || same == 0 {
			return 0
		}
		return (diff / nDiff) / (same / nSame)
	}
	qr, wr := ratio(qg), ratio(wg)
	if wr <= qr {
		t.Fatalf("w-gram separation ratio %v not better than q-gram %v", wr, qr)
	}
}

func TestAutoThresholdsSeparateModes(t *testing.T) {
	reads, origins := makePool(t, 18, 150, 110, 10, 0.06)
	grams := newGramSet(xrand.New(19), QGram, 48, 4)
	low, high, hist := autoThresholds(context.Background(), reads, grams, xrand.New(20), 1)
	if low >= high {
		t.Fatalf("thresholds inverted: %d >= %d", low, high)
	}
	if len(hist) == 0 {
		t.Fatal("no histogram")
	}
	// θ_high deliberately leans toward the different-origin bell (the band
	// is resolved by edit-distance checks), so the requirements are: most
	// same-origin pairs fall at or below θ_high, a solid majority of
	// different-origin pairs above it, and — critically, since below θ_low
	// clusters merge without any confirmation — (almost) no different-
	// origin pair at or below θ_low.
	var sameBelow, sameTotal, diffAbove, diffTotal, diffCheap float64
	for i := 0; i < 400; i++ {
		for j := i + 1; j < 400; j += 7 {
			d := grams.distance(grams.signature(reads[i]), grams.signature(reads[j]))
			if origins[i] == origins[j] {
				sameTotal++
				if d <= high {
					sameBelow++
				}
			} else {
				diffTotal++
				if d > high {
					diffAbove++
				}
				if d <= low {
					diffCheap++
				}
			}
		}
	}
	if sameTotal == 0 || diffTotal == 0 {
		t.Skip("sampling produced no pairs of one kind")
	}
	if sameBelow/sameTotal < 0.8 {
		t.Fatalf("only %v of same-origin pairs below theta_high", sameBelow/sameTotal)
	}
	if diffAbove/diffTotal < 0.70 {
		t.Fatalf("only %v of different-origin pairs above theta_high", diffAbove/diffTotal)
	}
	if diffCheap/diffTotal > 0.001 {
		t.Fatalf("%v of different-origin pairs at or below theta_low (wrong cheap merges)", diffCheap/diffTotal)
	}
}

func TestAccuracyMetric(t *testing.T) {
	origins := []int{0, 0, 0, 1, 1, 2}
	perfect := [][]int{{0, 1, 2}, {3, 4}, {5}}
	if got := Accuracy(perfect, origins, 1, 0); got != 1 {
		t.Fatalf("perfect clustering accuracy = %v", got)
	}
	// Cluster 0 split: with gamma=1 origin 0 is not recovered.
	split := [][]int{{0, 1}, {2}, {3, 4}, {5}}
	if got := Accuracy(split, origins, 1, 0); got != 2.0/3 {
		t.Fatalf("split accuracy = %v", got)
	}
	// With gamma=0.5 the 2/3 fragment counts as recovered.
	if got := Accuracy(split, origins, 0.5, 0); got != 1 {
		t.Fatalf("gamma=0.5 accuracy = %v", got)
	}
	// Impure cluster never counts.
	impure := [][]int{{0, 1, 2, 3}, {4}, {5}}
	if got := Accuracy(impure, origins, 0.5, 0); got != 2.0/3 {
		t.Fatalf("impure accuracy = %v", got)
	}
	// totalClusters larger than observed origins lowers the score.
	if got := Accuracy(perfect, origins, 1, 6); got != 0.5 {
		t.Fatalf("totalClusters accuracy = %v", got)
	}
}

func TestPurityMetric(t *testing.T) {
	origins := []int{0, 0, 1, 1}
	if got := Purity([][]int{{0, 1}, {2, 3}}, origins); got != 1 {
		t.Fatalf("purity = %v", got)
	}
	if got := Purity([][]int{{0, 2}, {1, 3}}, origins); got != 0.5 {
		t.Fatalf("mixed purity = %v", got)
	}
	if got := Purity(nil, nil); got != 1 {
		t.Fatalf("empty purity = %v", got)
	}
}

func TestSignatureModeString(t *testing.T) {
	if QGram.String() != "q-gram" || WGram.String() != "w-gram" {
		t.Fatal("mode names")
	}
}

func TestClusterManualThresholds(t *testing.T) {
	reads, origins := makePool(t, 21, 60, 110, 6, 0.06)
	res := mustCluster(t, reads, Options{Seed: 22, ThetaLow: 4, ThetaHigh: 18})
	if res.Stats.ThetaLow != 4 || res.Stats.ThetaHigh != 18 {
		t.Fatalf("manual thresholds not honoured: %+v", res.Stats)
	}
	if acc := Accuracy(res.Clusters, origins, 0.9, 60); acc < 0.8 {
		t.Fatalf("manual-threshold accuracy %v", acc)
	}
}

func BenchmarkClusterQGram1000Reads(b *testing.B) {
	reads, _ := makePool(b, 23, 100, 110, 10, 0.06)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCluster(b, reads, Options{Seed: 24})
	}
}

func BenchmarkClusterWGram1000Reads(b *testing.B) {
	reads, _ := makePool(b, 23, 100, 110, 10, 0.06)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCluster(b, reads, Options{Seed: 24, Mode: WGram})
	}
}
