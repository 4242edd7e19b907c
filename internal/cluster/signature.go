package cluster

import (
	"math"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// SignatureMode selects how cluster representatives are summarized for the
// cheap pre-filter that avoids edit-distance computations (§VI).
type SignatureMode int

// Signature modes.
const (
	// QGram signatures mark the presence/absence of a set of random
	// q-grams; signatures are compared with Hamming distance (§VI-A).
	QGram SignatureMode = iota
	// WGram signatures record the position of the first occurrence of each
	// gram; signatures are compared with the L1 norm. This is the paper's
	// novel variant (§VI-C): more expensive to build and store, but it
	// separates clusters further, reducing edit-distance confirmations.
	WGram
)

// String names the mode as in the paper's tables.
func (m SignatureMode) String() string {
	if m == WGram {
		return "w-gram"
	}
	return "q-gram"
}

// gramSet is one round's random grams, kept as 2-bit packed codes (first
// base most significant) so signatures are computed with one rolling-hash
// pass over the read instead of one substring scan per gram.
type gramSet struct {
	codes []uint32
	q     int
	mode  SignatureMode
}

// maxRollingQ bounds the gram length q (4^12 codes would still fit uint32,
// but gramIndex's head table is sized 4^q, so keep it small enough to
// rebuild every round). Options.GramLen beyond it is rejected with
// ErrOptions.
const maxRollingQ = 8

// newGramSet samples count random grams of length q.
func newGramSet(rng *xrand.RNG, mode SignatureMode, count, q int) gramSet {
	return gramSet{mode: mode, q: q, codes: drawGrams(rng, make([]uint32, count), q)}
}

// drawGrams fills codes with random grams of length q and returns it. Each
// code packs q draws of rng.Intn(4), first base most significant, so it is
// the code of the gram dna.Random(rng, q) draws (pinned by
// TestGramSetScratchMatchesNewGramSet).
func drawGrams(rng *xrand.RNG, codes []uint32, q int) []uint32 {
	for i := range codes {
		var c uint32
		for j := 0; j < q; j++ {
			c = c<<2 | uint32(rng.Intn(dna.NumBases))
		}
		codes[i] = c
	}
	return codes
}

// wgramAbsent marks a gram that does not occur in the read.
const wgramAbsent = -1

// wgramCap bounds the per-gram position difference. Reads of a common origin
// drift apart only by indel shifts (small |Δposition|), while unrelated
// reads have essentially independent first occurrences.
const wgramCap = 24

// wgramScale converts the mean capped drift into an integer distance with
// useful resolution.
const wgramScale = 8

// wgramMinOverlap is the minimum number of co-present grams required for a
// meaningful comparison; below it the distance is WGramFar (never merge on
// signature evidence alone).
const wgramMinOverlap = 4

// WGramFar is the sentinel distance for w-gram signature pairs with too few
// co-present grams to compare. It exceeds any real value of the scaled
// distance (at most wgramCap·wgramScale = 192), so such a pair never merges
// on signature evidence. It does not exceed meanDistance's unnormalized
// w-gram sums, which reach sweepGrams·wgramCap = 3 456: there it ranks ahead
// of most real candidates.
const WGramFar = 997

// sigMissingFar is the distance reported when a signature is missing
// entirely (computation skipped by cancellation or salvaged after a panic).
// It exceeds every threshold in either mode.
const sigMissingFar = 1 << 30

// sigMissingFarMean is meanDistance's sentinel for a missing signature.
// Returning float32(sigMissingFar) from a float32 function relied on 1<<30
// being a power of two (exactly representable); any future tweak to the int
// sentinel would round silently and could collide with a real distance.
// math.MaxFloat32 is explicit, finite (it sorts and compares like a number,
// unlike +Inf/NaN) and strictly larger than any real distance, so a missing
// signature can never rank ahead of a genuine candidate.
const sigMissingFarMean = float32(math.MaxFloat32)

// distance compares two signatures: Hamming for QGram; for WGram, the
// scaled mean capped position drift over co-present grams (the L1 norm of
// §VI-C restricted to grams both reads contain, normalized so the threshold
// band is independent of how many grams happen to be co-present).
//
//dnalint:hotpath
func (gs gramSet) distance(a, b []int32) int {
	if a == nil || b == nil {
		// A missing signature (its computation was skipped or salvaged
		// after a panic) carries no evidence: never merge on it.
		return sigMissingFar
	}
	if gs.mode == WGram {
		return wgramDistance(a, b)
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// wgramDistance is the WGram signature distance: the scaled mean capped
// position drift over co-present grams, WGramFar when fewer than
// wgramMinOverlap grams are co-present.
//
//dnalint:hotpath
func wgramDistance(a, b []int32) int {
	d, overlap := 0, 0
	for i := range a {
		if a[i] == wgramAbsent || b[i] == wgramAbsent {
			continue
		}
		overlap++
		v := int(a[i] - b[i])
		if v < 0 {
			v = -v
		}
		if v > wgramCap {
			v = wgramCap
		}
		d += v
	}
	if overlap < wgramMinOverlap {
		return WGramFar
	}
	return d * wgramScale / overlap
}

// meanDistance compares a single read's signature against a cluster's
// averaged signature (see the straggler sweep). QGram: L1 between the bit
// and the mean presence; WGram: capped position drift against the mean
// first-occurrence, with one-sided absence penalized. The WGram sum is not
// normalized by the overlap, so it reaches len(sig)·wgramCap, and a pair
// below wgramMinOverlap returns WGramFar, which sorts ahead of every real sum
// above 997 rather than last.
//
//dnalint:hotpath
func (gs gramSet) meanDistance(sig []int32, mean []float32) float32 {
	if sig == nil || mean == nil {
		// Missing evidence: the sentinel must beat every real candidate in
		// the sweep's nearest-first sort, so the straggler never merges on it.
		return sigMissingFarMean
	}
	var d float32
	if gs.mode == QGram {
		for i := range sig {
			m := mean[i]
			if m < 0 {
				m = 0
			}
			v := float32(sig[i]) - m
			if v < 0 {
				v = -v
			}
			d += v
		}
		return d
	}
	overlap := 0
	for i := range sig {
		a := sig[i] == wgramAbsent
		b := mean[i] < 0
		switch {
		case a && b:
		case a || b:
			d += wgramCap
		default:
			overlap++
			v := float32(sig[i]) - mean[i]
			if v < 0 {
				v = -v
			}
			if v > wgramCap {
				v = wgramCap
			}
			d += v
		}
	}
	if overlap < wgramMinOverlap {
		return WGramFar
	}
	return d
}
