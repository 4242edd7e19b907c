package cluster

import (
	"math"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// TestMissingSignatureNeverMerges pins the sentinel semantics for absent
// signatures (a computation skipped by cancellation or salvaged after a
// panic): in both signature modes, and on both the round path (distance)
// and the sweep path (meanDistance), a missing signature must compare
// strictly farther than any real pair, so it can never cause a merge.
func TestMissingSignatureNeverMerges(t *testing.T) {
	rng := xrand.New(5)
	a := dna.Random(rng, 120)
	b := append(a.Clone()[:115], dna.Random(rng, 5)...) // near-identical pair
	for _, mode := range []SignatureMode{QGram, WGram} {
		grams := newGramSet(xrand.New(7), mode, 48, 4)
		sa, sb := grams.signature(a), grams.signature(b)

		real := grams.distance(sa, sb)
		for _, miss := range [][2][]int32{{nil, sb}, {sa, nil}, {nil, nil}} {
			d := grams.distance(miss[0], miss[1])
			if d != sigMissingFar {
				t.Fatalf("%v distance(missing) = %d, want sentinel %d", mode, d, sigMissingFar)
			}
			if d <= real || d <= WGramFar {
				t.Fatalf("%v distance(missing) = %d does not exceed real distance %d / WGramFar", mode, d, real)
			}
		}

		// meanDistance: the float32 sentinel must be explicit, finite, and
		// strictly beyond every comparable value — including the int-path
		// sentinels — so a straggler with no evidence sorts dead last.
		mean := make([]float32, len(grams.codes))
		for i, v := range sb {
			mean[i] = float32(v)
		}
		realMean := grams.meanDistance(sa, mean)
		for _, got := range []float32{
			grams.meanDistance(nil, mean),
			grams.meanDistance(sa, nil),
			grams.meanDistance(nil, nil),
		} {
			if got != sigMissingFarMean {
				t.Fatalf("%v meanDistance(missing) = %g, want sentinel %g", mode, got, sigMissingFarMean)
			}
			if math.IsInf(float64(got), 0) || math.IsNaN(float64(got)) {
				t.Fatalf("%v meanDistance sentinel %g is not finite", mode, got)
			}
			if got <= realMean || got <= float32(sigMissingFar) || got <= WGramFar {
				t.Fatalf("%v meanDistance sentinel %g does not dominate real %g", mode, got, realMean)
			}
		}
	}
}

// TestSignatureScratchMatchesFresh checks that signatures computed through a
// reused per-worker scratch are bit-identical to per-call allocation, across
// modes, read shapes (empty, shorter-than-q, normal) and interleaved sizes.
func TestSignatureScratchMatchesFresh(t *testing.T) {
	rng := xrand.New(9)
	reads := []dna.Seq{
		nil,
		dna.Random(rng, 1),
		dna.Random(rng, 3), // shorter than q=4
		dna.Random(rng, 60),
		dna.Random(rng, 200),
	}
	for trial := 0; trial < 50; trial++ {
		reads = append(reads[:5], dna.Random(rng, rng.Intn(150)))
		for _, mode := range []SignatureMode{QGram, WGram} {
			grams := newGramSet(xrand.New(uint64(trial)), mode, 48, 4)
			var sc sigScratch
			for _, r := range reads {
				got := grams.signatureScratch(r, &sc)
				want := grams.signature(r)
				if len(got) != len(want) {
					t.Fatalf("%v signature length %d != %d", mode, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v signatureScratch[%d] = %d, want %d (len %d)", mode, i, got[i], want[i], len(r))
					}
				}
			}
		}
	}
}

// TestSignatureScratchStopsAllocating pins the point of the scratch: after
// warmup, only the returned signature itself is allocated (callers retain
// it), never the 4^q first-occurrence table.
func TestSignatureScratchStopsAllocating(t *testing.T) {
	rng := xrand.New(10)
	read := dna.Random(rng, 120)
	grams := newGramSet(xrand.New(3), WGram, 48, 4)
	var sc sigScratch
	grams.signatureScratch(read, &sc) // warm the table
	if n := testing.AllocsPerRun(50, func() { grams.signatureScratch(read, &sc) }); n > 1 {
		t.Errorf("signatureScratch allocates %.1f/op after warmup, want <= 1 (the signature)", n)
	}
}
