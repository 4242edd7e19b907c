// Bit-packed signature kernels and the chain-indexed signature scan — the
// clustering fast path's counterparts of signature.go's reference
// implementations.
//
// Three pieces live here. gramIndex maps a packed q-gram code to the chain of
// gram-set indices holding that code, so one rolling-hash pass over a read
// fills its whole signature without the reference path's 4^q
// first-occurrence table (and without its per-signature allocation). The
// q-gram presence signature is additionally kept bit-packed in []uint64
// words, making the Hamming distance an XOR+popcount sweep (hammingPacked) —
// the same move the Myers kernels made for edit distance. The w-gram L1
// distance gets a running-sum early exit against thetaHigh
// (wgramDistanceWithin): exact integer arithmetic proves the final
// normalized distance cannot come back under the threshold and bails.
//
// Every kernel is held bit-identical to its []int32 reference by
// FuzzSigDistance and the fixed-seed identity tests.
package cluster

import (
	"math/bits"

	"dnastore/internal/dna"
)

// sigWords is the []uint64 word count of a packed presence signature over
// count grams.
func sigWords(count int) int {
	return (count + 63) / 64
}

// hammingPacked is the packed-signature Hamming distance: identical to
// gramSet.distance on the QGram []int32 signatures the words were packed
// from.
//
//dnalint:hotpath
func hammingPacked(a, b []uint64) int {
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// wgramDistanceWithin is wgramDistance with a running-sum early exit against
// thetaHigh. Contract: when the distance is <= thetaHigh the exact value is
// returned; otherwise some value > thetaHigh is returned (callers only
// compare against the threshold band, so the two are indistinguishable).
//
// The exit is exact integer arithmetic, no estimate: with running unscaled
// drift d over o co-present grams and r grams left to scan, every completion
// has final drift >= d and final overlap <= o+r, so the normalized distance
// floor(D*wgramScale/overlap) is at least floor(d*wgramScale/(o+r)) — once
// d*wgramScale >= (thetaHigh+1)*(o+r) no completion can come back under the
// threshold. If even o+r is below wgramMinOverlap the result is exactly
// WGramFar. Both shortcuts require thetaHigh < WGramFar (otherwise WGramFar
// itself is inside the merge band and wgramDistance runs in full).
//
//dnalint:hotpath
func wgramDistanceWithin(a, b []int32, thetaHigh int) int {
	if thetaHigh >= WGramFar {
		// Degenerate threshold (user-fixed): WGramFar no longer exceeds the
		// band, so the shortcuts above are unsound.
		return wgramDistance(a, b)
	}
	n := len(a)
	d, overlap := 0, 0
	lim := thetaHigh + 1
	for i := 0; i < n; i++ {
		av, bv := a[i], b[i]
		if av != wgramAbsent && bv != wgramAbsent {
			overlap++
			v := int(av - bv)
			if v < 0 {
				v = -v
			}
			if v > wgramCap {
				v = wgramCap
			}
			d += v
		}
		reach := overlap + (n - 1 - i)
		if reach < wgramMinOverlap {
			return WGramFar
		}
		if d*wgramScale >= lim*reach {
			return lim
		}
	}
	if overlap < wgramMinOverlap {
		return WGramFar // unreachable for n > 0 (the loop exits first); n == 0
	}
	return d * wgramScale / overlap
}

// gramIndex inverts a gram set: packed code -> chain of gram indices holding
// that code. With it, one rolling-hash pass over a read visits exactly the
// signature entries the read touches, replacing the reference path's
// 4^q-entry first-occurrence table per signature with an O(len(read)) scan.
// Chains are read-only after build, so parallel workers share one index.
// Requires q <= maxRollingQ (the head table is sized 4^q).
type gramIndex struct {
	head []int32 // 4^q entries: first gram index holding the code, -1 none
	next []int32 // per-gram chain links
}

// build rebuilds the index for gs in place.
func (gi *gramIndex) build(gs gramSet) {
	size := 1 << (2 * uint(gs.q))
	if cap(gi.head) < size {
		gi.head = make([]int32, size)
	}
	gi.head = gi.head[:size]
	for i := range gi.head {
		gi.head[i] = -1
	}
	if cap(gi.next) < len(gs.codes) {
		gi.next = make([]int32, len(gs.codes))
	}
	gi.next = gi.next[:len(gs.codes)]
	for i := len(gs.codes) - 1; i >= 0; i-- {
		c := gs.codes[i]
		gi.next[i] = gi.head[c]
		gi.head[c] = int32(i)
	}
}

// signatureInto fills dst (len == len(gs.codes)) with the read's reference
// []int32 signature — bit-identical to the reference oracle's — in one
// rolling-hash pass over the read.
//
//dnalint:hotpath
func (gi *gramIndex) signatureInto(gs gramSet, read dna.Seq, dst []int32) {
	if gs.mode == QGram {
		for i := range dst {
			dst[i] = 0
		}
	} else {
		for i := range dst {
			dst[i] = wgramAbsent
		}
	}
	if len(read) < gs.q {
		return
	}
	mask := uint32(1<<(2*uint(gs.q)) - 1)
	var code uint32
	head := gi.head
	for i, b := range read {
		code = (code<<2 | uint32(b&3)) & mask
		if i < gs.q-1 {
			continue
		}
		for g := head[code]; g >= 0; g = gi.next[g] {
			if gs.mode == QGram {
				dst[g] = 1
			} else if dst[g] == wgramAbsent {
				dst[g] = int32(i - gs.q + 1)
			}
		}
	}
}

// qsigBitsInto fills dst (len == sigWords(len(gs.codes))) with the read's
// bit-packed q-gram presence signature: bit g set iff the reference
// signature's entry g is 1.
//
//dnalint:hotpath
func (gi *gramIndex) qsigBitsInto(gs gramSet, read dna.Seq, dst []uint64) {
	for w := range dst {
		dst[w] = 0
	}
	if len(read) < gs.q {
		return
	}
	mask := uint32(1<<(2*uint(gs.q)) - 1)
	var code uint32
	head := gi.head
	for i, b := range read {
		code = (code<<2 | uint32(b&3)) & mask
		if i < gs.q-1 {
			continue
		}
		for g := head[code]; g >= 0; g = gi.next[g] {
			dst[g>>6] |= 1 << (uint(g) & 63)
		}
	}
}
