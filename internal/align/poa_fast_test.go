package align

import (
	"testing"

	"dnastore/internal/dna"
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
	if _, ok := g.alignToGraphBanded(junk); ok {
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
	if _, ok := g.alignToGraphBanded(ref); !ok {
		t.Fatal("clean read rejected by the banded kernel")
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
