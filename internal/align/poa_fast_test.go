package align

import (
	"context"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// pairsEqual compares two alignment pair lists cell-for-cell.
func pairsEqual(a, b []pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// clonePairs copies a scratch-backed pair list so it survives the next
// alignment call on the same graph.
func clonePairs(p []pair) []pair { return append([]pair(nil), p...) }

// TestBandedMatchesDPPairs is the core differential property of this PR's
// fast path: on arbitrary clusters — clean, noisy, junk, mixed lengths — the
// windowed kernel (with its DP fallback) must return exactly the pair list
// the exhaustive DP returns, read by read, so the graphs it builds are
// indistinguishable from the reference's.
func TestBandedMatchesDPPairs(t *testing.T) {
	rng := xrand.New(77)
	lengths := []int{6, 24, 60, 110, 200}
	rates := []float64{0, 0.03, 0.08, 0.15, 0.35}
	for _, n := range lengths {
		for _, p := range rates {
			for trial := 0; trial < 4; trial++ {
				ref := dna.Random(rng, n)
				var reads []dna.Seq
				cov := 2 + rng.Intn(8)
				for i := 0; i < cov; i++ {
					reads = append(reads, mutate(rng, ref, p))
				}
				// Adversarial extras: an unrelated junk read (hopeless for
				// the banded bound at realistic lengths), a tiny fragment,
				// and an empty read.
				reads = append(reads, dna.Random(rng, n), ref[:n/3].Clone(), nil)

				fast := NewGraph()
				refG := NewGraph()
				refG.SetReferenceDP(true)
				for ri, r := range reads {
					if len(r) > 0 && fast.NumNodes() > 0 {
						got := clonePairs(fast.alignToGraph(r))
						want := refG.alignToGraph(r)
						if !pairsEqual(got, want) {
							t.Fatalf("len=%d p=%.2f trial=%d read=%d: banded pairs diverge from DP\n got=%v\nwant=%v",
								n, p, trial, ri, got, want)
						}
					}
					fast.AddSequence(r)
					refG.AddSequence(r)
				}
				got := fast.Consensus(n)
				want := refG.Consensus(n)
				if !got.Equal(want) {
					t.Fatalf("len=%d p=%.2f trial=%d: consensus diverges: %v vs %v", n, p, trial, got, want)
				}
			}
		}
	}
}

// TestBandedFallbackHopeless pins the fallback contract: a read that cannot
// reach the pruning bound makes the banded kernel report !ok (it must not
// fabricate a traceback), and alignToGraph still produces the exact DP pair
// list via the fallback.
func TestBandedFallbackHopeless(t *testing.T) {
	rng := xrand.New(78)
	ref := dna.Random(rng, 160)
	g := NewGraph()
	g.AddSequence(ref)
	g.AddSequence(mutate(rng, ref, 0.05))

	// A 160-base random read shares ~25% of bases with the graph: expected
	// score far below 2m - slack, so the bound cannot be met.
	junk := dna.Random(rng, 160)
	if _, ok := g.alignToGraphSlack(junk, alignSlack(len(junk))); ok {
		t.Fatal("random 160-base read against an unrelated graph met the pruning bound")
	}
	got := clonePairs(g.alignToGraph(junk))
	want := g.alignToGraphDP(junk)
	if !pairsEqual(got, want) {
		t.Fatalf("fallback pair list diverges from DP:\n got=%v\nwant=%v", got, want)
	}
}

// TestBandedAcceptsCleanRead pins the other side: a read identical to the
// graph's backbone must be handled by the banded kernel itself (ok == true),
// otherwise the fast path silently degrades to DP-always.
func TestBandedAcceptsCleanRead(t *testing.T) {
	rng := xrand.New(79)
	ref := dna.Random(rng, 110)
	g := NewGraph()
	g.AddSequence(ref)
	g.AddSequence(mutate(rng, ref, 0.03))
	if _, ok := g.alignToGraphSlack(ref, alignSlack(len(ref))); !ok {
		t.Fatal("clean read rejected by the banded kernel")
	}
}

// noisyPointClusters simulates fixed-seed clusters at the paper's Table III
// point: 128-nt strands through 6 % IID error at fixed coverage 10, one
// cluster of reads per strand.
func noisyPointClusters(tb testing.TB, strands int) [][]dna.Seq {
	tb.Helper()
	rng := xrand.New(24)
	src := make([]dna.Seq, strands)
	for i := range src {
		src[i] = dna.Random(rng, 128)
	}
	reads, err := sim.SimulatePoolContext(context.Background(), src, sim.Options{
		Channel: sim.CalibratedIID(0.06), Coverage: sim.FixedCoverage(10), Seed: 25,
	})
	if err != nil {
		tb.Fatal(err)
	}
	clusters := make([][]dna.Seq, strands)
	for _, r := range reads {
		clusters[r.Origin] = append(clusters[r.Origin], r.Seq)
	}
	return clusters
}

// TestWideBandRetry pins alignToGraph's retry on ordinary noisy-point reads:
// some miss the first band and fit the wide one, so the retry saves the
// exhaustive DP, and every pair list either band returns equals
// alignToGraphDP's. A junk read misses both bands, and alignToGraph still
// returns the DP's pair list for it.
func TestWideBandRetry(t *testing.T) {
	clusters := noisyPointClusters(t, 100)
	rng := xrand.New(26)
	g := NewGraph()
	aligns, missFirst, missBoth := 0, 0, 0
	for ci, reads := range clusters {
		g.Reset()
		for ri, r := range reads {
			if g.NumNodes() > 0 && len(r) > 0 {
				aligns++
				want := clonePairs(g.alignToGraphDP(r))
				slack := alignSlack(len(r))
				for _, sl := range []int{slack, wideBandFactor * slack} {
					got, ok := g.alignToGraphSlack(r, sl)
					if ok && !pairsEqual(got, want) {
						t.Fatalf("cluster %d read %d slack %d: banded pairs diverge from DP", ci, ri, sl)
					}
					if ok {
						break
					}
					if sl == slack {
						missFirst++
					} else {
						missBoth++
					}
				}
			}
			g.AddSequence(r)
		}
		junk := dna.Random(rng, 128)
		for _, sl := range []int{alignSlack(len(junk)), wideBandFactor * alignSlack(len(junk))} {
			if _, ok := g.alignToGraphSlack(junk, sl); ok {
				t.Fatalf("cluster %d: a random read met the bound at slack %d", ci, sl)
			}
		}
		got := clonePairs(g.alignToGraph(junk))
		if want := g.alignToGraphDP(junk); !pairsEqual(got, want) {
			t.Fatalf("cluster %d: junk read's pairs diverge from DP", ci)
		}
	}
	t.Logf("%d graph alignments: %d missed the first band, %d of them the wide band too", aligns, missFirst, missBoth)
	if missFirst == missBoth {
		t.Fatalf("no read of %d missed the first band and fit the wide one; the retry is untested", aligns)
	}
}

// TestReferenceDPToggle pins SetReferenceDP: the toggle routes through the
// exhaustive kernel (observable only through identical results, so this just
// guards the plumbing against inversion).
func TestReferenceDPToggle(t *testing.T) {
	rng := xrand.New(81)
	ref := dna.Random(rng, 70)
	var reads []dna.Seq
	for i := 0; i < 6; i++ {
		reads = append(reads, mutate(rng, ref, 0.06))
	}
	g := NewGraph()
	g.SetReferenceDP(true)
	want := g.ConsensusOf(reads, len(ref))
	g.SetReferenceDP(false)
	got := g.ConsensusOf(reads, len(ref))
	if !got.Equal(want) {
		t.Fatalf("fast consensus %v != reference %v", got, want)
	}
}

// BenchmarkConsensusNoisyPoint times ConsensusOf over 100 fixed clusters at
// the Table III point (128 nt, 6 % IID, coverage 10), one graph reused.
func BenchmarkConsensusNoisyPoint(b *testing.B) {
	clusters := noisyPointClusters(b, 100)
	g := NewGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, reads := range clusters {
			g.ConsensusOf(reads, 128)
		}
	}
}

func BenchmarkAlignToGraphBanded(b *testing.B) {
	rng := xrand.New(2)
	ref := dna.Random(rng, 110)
	var reads []dna.Seq
	for i := 0; i < 8; i++ {
		reads = append(reads, mutate(rng, ref, 0.03))
	}
	g := NewGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConsensusOf(reads, len(ref))
	}
}

func BenchmarkAlignToGraphDP(b *testing.B) {
	rng := xrand.New(2)
	ref := dna.Random(rng, 110)
	var reads []dna.Seq
	for i := 0; i < 8; i++ {
		reads = append(reads, mutate(rng, ref, 0.03))
	}
	g := NewGraph()
	g.SetReferenceDP(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConsensusOf(reads, len(ref))
	}
}
