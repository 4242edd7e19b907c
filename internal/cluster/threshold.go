package cluster

import (
	"context"
	"math/bits"
	"sort"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/exec"
	"dnastore/internal/xrand"
)

// calibQ is the q-gram length of the counting filter that screens
// edit-distance calls during calibration. Independent of Options.GramLen:
// the filter is internal to autoEditThreshold and 4 keeps the code space at
// 256 so a presence set is four uint64 words.
const calibQ = 4

// calibWords is the uint64 word count of a calibQ-gram presence set.
const calibWords = (1 << (2 * calibQ)) / 64

// calibPresence is the set of distinct calibQ-gram codes occurring in a
// read, one bit per packed code.
type calibPresence [calibWords]uint64

// calibPresenceOf fills pb with the read's distinct calibQ-gram presence set
// and returns the number of distinct grams (the set's popcount).
func calibPresenceOf(read dna.Seq, pb *calibPresence) int {
	for i := range pb {
		pb[i] = 0
	}
	if len(read) < calibQ {
		return 0
	}
	const mask = uint32(1<<(2*calibQ) - 1)
	var code uint32
	for i, b := range read {
		code = (code<<2 | uint32(b&3)) & mask
		if i >= calibQ-1 {
			pb[code>>6] |= 1 << (code & 63)
		}
	}
	n := 0
	for _, w := range pb {
		n += bits.OnesCount64(w)
	}
	return n
}

// autoEditThreshold picks the merge-confirmation edit-distance threshold
// from the data, in the same spirit as AutoThresholdsContext: sample probe
// reads, compute banded edit distances to a sample, and place the threshold
// midway between the nearest-neighbour mode (same-strand pairs) and the
// median (different-strand pairs). A fixed fraction of the read length is
// unsafe: for short strands the two distributions sit close together, and
// for long ones it wastes the available gap.
//
// Phase 2's nearest-neighbour search screens pairs with the presence form of
// the q-gram counting lemma (Ukkonen): an edit operation touches at most
// calibQ gram positions of a, the positions touched by different vanished
// codes are disjoint, and a distinct code of a vanishes only if all its
// occurrences are touched — so if ed(a,b) <= k, at most k*calibQ distinct
// codes of a are absent from b and the presence sets share at least
// da - k*calibQ codes (da = a's distinct-gram count). The screen is four
// AND+popcount words per pair; calibNearestScreened explains why the
// screened search resolves calibNearestScan's exact value.
// TestCalibScreenMatchesScan pins the two equal; TestCalibFilterSoundness
// checks the lemma directly.
func autoEditThreshold(reads []dna.Seq, readLen int, rng *xrand.RNG) int {
	bound := readLen * 3 / 5
	if bound < 4 {
		bound = 4
	}
	nProbe := 48
	if nProbe > len(reads) {
		nProbe = len(reads)
	}
	// The sample must be large enough that most probes find a same-strand
	// partner in it; at coverage c in n reads a probe needs ≈ n/c samples.
	nSample := 2000
	if nSample > len(reads) {
		nSample = len(reads)
	}
	perm := rng.Perm(len(reads))
	probes := perm[:nProbe]
	sample := perm[len(perm)-nSample:]

	// Calibration is serial, so one scratch serves every comparison.
	var es edit.Scratch

	// Phase 1: the different-strand distance median needs only a modest
	// number of pairs.
	var all []int
	for i, pi := range probes {
		for k := 0; k < 40 && k < len(sample); k++ {
			sj := sample[(i*41+k*53)%len(sample)]
			if pi == sj {
				continue
			}
			d, ok := es.Within(reads[pi], reads[sj], bound)
			if !ok {
				d = bound
			}
			all = append(all, d)
		}
	}
	if len(all) == 0 {
		return readLen / 4
	}
	sort.Ints(all)
	median := all[len(all)/2] // dominated by different-strand pairs

	// Phase 2: each probe's nearest neighbour over the full sample, resolved
	// through the counting filter (see calibNearestScreened); probes it
	// cannot resolve pay the sequential scan.
	sampleBits := make([]calibPresence, nSample)
	for j, sj := range sample {
		calibPresenceOf(reads[sj], &sampleBits[j])
	}
	var pb calibPresence
	var nearest []int
	for _, pi := range probes {
		nn, done := 0, false
		if median > 2 {
			nn, done = calibNearestScreened(reads, pi, sample, sampleBits, median, &pb, &es)
		}
		if !done {
			nn = calibNearestScan(reads, pi, sample, median, &es)
		}
		nearest = append(nearest, nn)
	}
	sort.Ints(nearest)
	// The same-strand mode: the lower quartile of nearest-neighbour
	// distances is robust even when only a third of the probes found a
	// same-strand partner in the sample.
	nnLow := nearest[len(nearest)/4]
	if float64(nnLow) > 0.7*float64(median) {
		// No same-strand bump visible (singleton-ish data): stay well below
		// the different-strand mode.
		return max(4, median/2)
	}
	return max(4, (nnLow+median)/2)
}

// calibScreenBand is the edit band the screened nearest-neighbour search
// checks candidates against. It must comfortably cover the same-strand mode
// (a few percent of the read length) while keeping the presence floor
// da - band*calibQ high enough that different-strand pairs screen out.
const calibScreenBand = 12

// calibNearestScan is phase 2's reference inner loop: scan the sample in
// order with a shrinking banded bound, stopping once nn <= 2.
func calibNearestScan(reads []dna.Seq, pi int, sample []int, median int, es *edit.Scratch) int {
	nn := median // nothing above the diff median can be the same-strand mode
	for _, sj := range sample {
		if pi == sj {
			continue
		}
		if d, ok := es.Within(reads[pi], reads[sj], nn-1); ok {
			nn = d
		}
		if nn <= 2 {
			break
		}
	}
	return nn
}

// calibNearestScreened resolves a probe's phase-2 nearest-neighbour value
// without the sequential scan, returning done=false when it cannot.
//
// calibNearestScan's result is almost order-free: nn only ever drops to the
// distance of a closer pair, so the final value is min(median, min_j ed) —
// except that the scan breaks at the first pair reaching nn <= 2, which
// makes that pair's distance the answer. Both shapes survive screening with
// the counting lemma at a fixed band ks: every screened-out pair has proven
// ed > ks >= 3, so (a) the first in-order pair with ed <= 2 is necessarily a
// candidate and is caught in order, and (b) if some candidate has ed <= ks,
// the global minimum is the candidate minimum. Only a probe whose true
// nearest neighbour lies beyond ks (no same-strand partner in the sample,
// or an unusually damaged one) is unresolvable, and falls back to the
// verbatim scan — paying exactly the reference cost for that probe.
//
// Requires median > 2 (the caller guards): with median <= 2 the reference
// scan breaks after its first pair regardless of distance.
func calibNearestScreened(reads []dna.Seq, pi int, sample []int, sampleBits []calibPresence, median int, pb *calibPresence, es *edit.Scratch) (int, bool) {
	da := calibPresenceOf(reads[pi], pb)
	ks := calibScreenBand
	if m := (da - 1) / calibQ; m < ks {
		ks = m // keep the floor positive: the lemma needs ks*calibQ < da
	}
	if ks < 3 {
		return 0, false // degenerate probe (tiny or repeat-saturated read)
	}
	floor := da - ks*calibQ
	candMin := 1 << 30
	for j, sj := range sample {
		if pi == sj {
			continue
		}
		sb := &sampleBits[j]
		inter := 0
		for w := range pb {
			inter += bits.OnesCount64(pb[w] & sb[w])
		}
		if inter < floor {
			continue // proven ed > ks
		}
		if d, ok := es.Within(reads[pi], reads[sj], ks); ok {
			if d <= 2 {
				// The first in-order pair reaching ed <= 2: the reference
				// scan updates nn to d here and breaks.
				return d, true
			}
			if d < candMin {
				candMin = d
			}
		}
	}
	if candMin > ks {
		return 0, false // nearest neighbour beyond the screen band
	}
	if median < candMin {
		return median, true
	}
	return candMin, true
}

// AutoThresholdsContext implements the automatic configuration of §VI-B
// (Fig. 5): it samples a handful of probe reads, computes signature
// distances against a larger random sample, and derives (θ_low, θ_high)
// from the resulting bimodal distribution. Distances between reads of
// different strands form a bell around the histogram's main mode; distances
// between reads of the same strand form a small bump near zero, which the
// probes' nearest-neighbour distances locate without ground truth. θ_high
// is placed between the two modes and θ_low inside the same-strand bump.
//
// The signature grams derive from opts exactly as ClusterContext derives
// them (Seed, Mode, GramLen), so the returned pair is the one
// ClusterContext reports in Stats when both thresholds are left zero; the
// returned histogram (indexed by distance) is what Fig. 5 plots. Options
// ClusterContext cannot run return an error matching ErrOptions, and a
// cancelled ctx returns its cause.
func AutoThresholdsContext(ctx context.Context, reads []dna.Seq, opts Options) (thetaLow, thetaHigh int, hist []int, err error) {
	o, err := opts.withDefaults()
	if err != nil {
		return 0, 0, nil, err
	}
	grams := newGramSet(xrand.Derive(o.Seed, 0xc0f1), o.Mode, numGrams, o.GramLen)
	thetaLow, thetaHigh, hist = autoThresholds(ctx, reads, grams, xrand.Derive(o.Seed, 0xc0f2), o.Workers)
	return thetaLow, thetaHigh, hist, context.Cause(ctx)
}

// autoThresholds is the worker-parallel calibration behind
// AutoThresholdsContext. The sampling permutation is drawn serially before
// any goroutine starts and the per-probe distance rows are merged back in
// probe order, so thresholds and histogram are bit-identical for every
// worker count (pinned by TestAutoThresholdsParallelDeterministic). Workers
// share one read-only gram index and write disjoint rows.
func autoThresholds(ctx context.Context, reads []dna.Seq, grams gramSet, rng *xrand.RNG, workers int) (thetaLow, thetaHigh int, hist []int) {
	if workers < 1 {
		workers = 1
	}
	nProbe := 64
	if nProbe > len(reads) {
		nProbe = len(reads)
	}
	nSample := 2048
	if nSample > len(reads) {
		nSample = len(reads)
	}
	perm := rng.Perm(len(reads))
	probes := perm[:nProbe]
	sample := perm[len(perm)-nSample:]

	// Rows are pre-filled with the "no evidence" sentinel so a
	// panic-contained or cancelled row item reads as skipped rather than as
	// a spurious distance-0 pair. TestAutoThresholdRowsFastMatchesReference
	// pins the rows to the reference pass.
	rows := make([]int, nProbe*nSample)
	for i := range rows {
		rows[i] = -1
	}
	autoThresholdRowsFast(ctx, reads, grams, probes, sample, rows, workers)

	// Serial merge in probe order: identical dists/maxD/nearest to the
	// serial pass regardless of how the rows were scheduled.
	maxD := 0
	var dists []int
	nearest := make([]int, 0, nProbe)
	for i := range probes {
		nn := 1 << 30
		for _, d := range rows[i*nSample : (i+1)*nSample] {
			if d < 0 {
				continue
			}
			dists = append(dists, d)
			if d > maxD {
				maxD = d
			}
			if d < nn {
				nn = d
			}
		}
		if nn < 1<<30 {
			nearest = append(nearest, nn)
		}
	}
	hist = make([]int, maxD+1)
	for _, d := range dists {
		hist[d]++
	}
	if len(dists) == 0 {
		return 0, 1, hist
	}

	// Main (different-strand) mode of the distance distribution, excluding
	// the w-gram "too far to compare" sentinel.
	mode, peak := 0, -1
	for d, c := range hist {
		if d >= WGramFar {
			break
		}
		if c > peak {
			mode, peak = d, c
		}
	}
	// Same-strand bump location: the median nearest-neighbour distance of
	// the probes. With any real coverage most probes have a same-strand
	// partner in the sample, so the median sits inside the bump.
	sort.Ints(nearest)
	nnMed := nearest[len(nearest)/2]
	if nnMed >= mode {
		// No visible same-strand bump (singletons or extreme noise): be
		// conservative and only trust very close signatures.
		thetaHigh = mode / 2
		if thetaHigh < 1 {
			thetaHigh = 1
		}
		return thetaHigh / 2, thetaHigh, hist
	}
	// θ_high: 80% of the way from the same-strand bump to the bell. The
	// band between the modes is resolved by the edit-distance confirmation,
	// which is far more discriminative, so erring toward the bell only
	// costs extra edit-distance calls, never wrong merges.
	thetaHigh = nnMed + (mode-nnMed)*4/5
	thetaLow = nnMed / 2
	if thetaHigh <= thetaLow {
		thetaHigh = thetaLow + 1
	}
	return thetaLow, thetaHigh, hist
}

// autoThresholdRowsFast is the reference calibration (reference_test.go) on
// the fast-path signature kernels: one shared chain index and one flat
// signature row per probe, then per sample read. QGram rows are bit-packed
// presence words scored with hammingPacked, which is exactly
// gramSet.distance on 0/1 signatures; WGram rows are signatureInto's
// (bit-identical to the reference signature) scored with wgramDistance,
// since the histogram needs the exact values, not a thresholded band. The
// ok flags replace the reference's nil-signature sentinel: set last in the
// signature item, so a panic-contained signature leaves its pairs at -1.
func autoThresholdRowsFast(ctx context.Context, reads []dna.Seq, grams gramSet, probes, sample []int, rows []int, workers int) {
	nProbe, nSample := len(probes), len(sample)
	var gi gramIndex
	gi.build(grams)
	n := nProbe + nSample
	var bitRows []uint64
	var sigRows []int32
	g := len(grams.codes) // row stride
	if grams.mode == QGram {
		g = sigWords(g)
		bitRows = make([]uint64, n*g)
	} else {
		sigRows = make([]int32, n*g)
	}
	ok := make([]bool, n)
	exec.ParallelForW(ctx, workers, n, func(_, i int) {
		var read dna.Seq
		if i < nProbe {
			read = reads[probes[i]]
		} else {
			read = reads[sample[i-nProbe]]
		}
		if grams.mode == QGram {
			gi.qsigBitsInto(grams, read, bitRows[i*g:(i+1)*g])
		} else {
			gi.signatureInto(grams, read, sigRows[i*g:(i+1)*g])
		}
		ok[i] = true
	})
	exec.ParallelForW(ctx, workers, nProbe, func(_, i int) {
		if !ok[i] {
			return
		}
		row := rows[i*nSample : (i+1)*nSample]
		pi := probes[i]
		for j, sj := range sample {
			k := nProbe + j
			switch {
			case pi == sj || !ok[k]:
			case grams.mode == QGram:
				row[j] = hammingPacked(bitRows[i*g:(i+1)*g], bitRows[k*g:(k+1)*g])
			default:
				row[j] = wgramDistance(sigRows[i*g:(i+1)*g], sigRows[k*g:(k+1)*g])
			}
		}
	})
}
