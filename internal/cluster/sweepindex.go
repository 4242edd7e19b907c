// Indexed straggler sweep — the fast-path replacement for the reference
// stragglerSweep (the test-only oracle in reference_test.go). The reference
// ranks, for every straggler, every other cluster by exact meanDistance and
// then fully sorts the list: O(S·R·G + S·R log R) for S stragglers over R
// clusters. The sweep here keeps the identical outcome but gets the
// candidate list through a gram-inverted index over the clusters' averaged
// signatures:
//
//  1. a screen pass accumulates, per candidate cluster j, the algebraic
//     decomposition of the mean distance over only the grams the straggler
//     actually contains (weighted postings), yielding an approximate
//     distance d̃_j whose only divergence from the exact value is float
//     summation order;
//  2. a bounded max-heap finds the limit-th smallest d̃, and every candidate
//     within a fixed margin of it survives — an order-statistics argument
//     (see sweepScreenMargin) proves the survivors are a superset of the
//     exact top-limit list;
//  3. survivors get the exact reference meanDistance (same kernel, same
//     float order) and the reference (distance, index) sort, so the
//     edit-checked candidate sequence — and therefore every merge and every
//     Stats counter — is bit-identical to the reference sweep.
//
// The decompositions are exact in real arithmetic. QGram: with presence set
// P of the straggler and m⁺ = max(mean, 0),
//
//	d = Σ_g |sig_g − m⁺_g| = |P| + Σ_g m⁺_g − 2·Σ_{g∈P} m⁺_g,
//
// so per-candidate it suffices to accumulate W_j = Σ_{g∈P} m⁺_jg from the
// postings (base_j = Σ_g m⁺_jg is precomputed). WGram: with presence counts
// |P| (straggler) and M_j (mean) and shared_j co-present grams,
//
//	d = wgramCap·(|P| + M_j − 2·shared_j) + Σ_{co-present} min(|sig−mean|, cap),
//
// and shared_j is an exact integer, so the overlap < wgramMinOverlap ⇒
// WGramFar rule transfers exactly.
package cluster

import (
	"math"
	"sort"

	"dnastore/internal/exec"
)

// sweepScreenMargin is added to the limit-th smallest approximate distance
// to form the screen threshold. The approximate and exact distances differ
// only by float32 summation order; with ≤ 3·numGrams terms each bounded by
// wgramCap the reassociation error is far below 1.0, and the margin covers
// it with an order of magnitude to spare. Soundness: if d_j is within the
// exact top-limit then d_j ≤ d_(limit), and since every candidate satisfies
// |d̃ − d| ≤ ε the limit-th smallest approximate distance T₀ is at least
// d_(limit) − ε, giving d̃_j ≤ d_j + ε ≤ T₀ + 2ε ≤ T₀ + margin. A margin
// that is too generous only grows the exact-recompute set, never changes
// the result.
const sweepScreenMargin = 4.0

// sweepSigReads bounds how many members contribute to a cluster's averaged
// sweep signature: the mean denoises individual read errors, and a handful
// of members is enough for the averaging to converge.
const sweepSigReads = 6

// sweepCand is a candidate cluster for a straggler merge, ranked by distance
// to the cluster's averaged signature.
type sweepCand struct {
	j int
	d float32
}

// sweepWorker is one worker's reusable straggler-sweep state. Slot w is
// touched only by worker w (exec.ParallelForW), never shared.
//
//dnalint:scratch
type sweepWorker struct {
	sig    []int32   // straggler / member signature buffer
	sum    []float32 // mean-signature accumulators
	count  []int32
	acc    []float32 // per-candidate W_j (QGram) or drift sum A_j (WGram)
	shared []int32   // per-candidate co-present gram count (WGram)
	stamp  []int32   // epoch stamps validating acc/shared entries
	epoch  int32
	dtil   []float32 // per-candidate approximate distance
	heap   []float32 // bounded max-heap of the smallest approximations
	cands  []sweepCand
}

// sweepIndex is the shared (build-once-per-pass) state of the indexed sweep:
// the sweep gram set, the flat averaged signatures, the weighted postings
// and the per-straggler outputs. Built serially or in disjoint-row parallel
// phases; read-only while stragglers are processed.
//
//dnalint:scratch
type sweepIndex struct {
	gs          gramSetScratch
	small       int32
	sizesSorted []int32

	meanBuf []float32 // nr × G flat averaged signatures
	meanOK  []bool    // row validity (replaces the reference's nil rows)

	// Weighted postings: for gram g, candidates postJ[postOff[g]:postOff[g+1]]
	// with their mean values in postV. QGram posts m⁺ > 0 entries; WGram
	// posts present (mean ≥ 0) entries.
	postOff []int32
	postJ   []int32
	postV   []float32
	cursor  []int32
	base    []float32 // QGram: Σ_g m⁺ per candidate
	presCnt []int32   // WGram: present-gram count per candidate

	bestJ     []int32 // straggler outputs: chosen dense root, -1 none
	editCalls []int32

	ws          []sweepWorker
	meanItemFn  func(w, i int)
	stragItemFn func(w, i int)
}

func ensureFloat32(s *[]float32, n int) []float32 {
	if cap(*s) < n {
		*s = make([]float32, n)
	}
	*s = (*s)[:n]
	return *s
}

// runSweepPass executes one straggler-sweep pass on the fast path: identical
// merges, edit-distance calls and Stats to the reference sweep
// (reference_test.go), via the indexed candidate screen. Returns the number
// of merges applied.
func (rr *roundRunner) runSweepPass(pass uint64) int {
	o := rr.o
	nr := rr.buildState()
	sw := &rr.sweep
	if sw.ws == nil {
		sw.ws = make([]sweepWorker, o.Workers)
		sw.meanItemFn = rr.sweepMeanItem
		sw.stragItemFn = rr.sweepStragglerItem
	}

	// Straggler size threshold: at most two thirds of the median cluster
	// size, floor 2 — the reference's definition.
	sorted := ensureInt32(&sw.sizesSorted, nr)
	for d := 0; d < nr; d++ {
		sorted[d] = rr.memberOff[d+1] - rr.memberOff[d]
	}
	sort.Sort((*int32Slice)(&sw.sizesSorted))
	small := sorted[nr/2] * 2 / 3
	if small < 2 {
		small = 2
	}
	sw.small = small

	// Sweep grams: triple the per-round count, fresh per pass, drawn from
	// the same derived stream as the reference.
	G := 3 * numGrams
	rr.gsRng.ReseedDerive(o.Seed, 0x5feeb+pass)
	sw.gs.fill(&rr.gsRng, o.Mode, G, o.GramLen)

	// Representatives: the first (smallest-id) member of each cluster.
	reps := ensureInt32(&rr.reps, nr)
	for d := 0; d < nr; d++ {
		reps[d] = rr.members[rr.memberOff[d]]
	}

	// Averaged signatures, one flat row per cluster, in parallel.
	sw.meanBuf = ensureFloat32(&sw.meanBuf, nr*G)
	if cap(sw.meanOK) < nr {
		sw.meanOK = make([]bool, nr)
	}
	sw.meanOK = sw.meanOK[:nr]
	for i := range sw.meanOK {
		sw.meanOK[i] = false
	}
	exec.ParallelForW(rr.ctx, o.Workers, nr, sw.meanItemFn)

	// Postings over the averaged signatures (serial, O(nr·G)).
	sw.buildPostings(nr, o.Mode, G)

	// Stragglers, in parallel; outputs pre-set to "no merge" so skipped or
	// panicked items change nothing.
	sw.bestJ = ensureInt32(&sw.bestJ, nr)
	sw.editCalls = ensureInt32(&sw.editCalls, nr)
	for i := 0; i < nr; i++ {
		sw.bestJ[i] = -1
		sw.editCalls[i] = 0
	}
	exec.ParallelForW(rr.ctx, o.Workers, nr, sw.stragItemFn)

	// Serial apply in straggler order, exactly like the reference.
	applied := 0
	for i := 0; i < nr; i++ {
		rr.stats.EditDistanceCalls += int(sw.editCalls[i])
		if j := sw.bestJ[i]; j >= 0 {
			if rr.uf.union(int(rr.roots[i]), int(rr.roots[j])) {
				rr.stats.Merges++
				applied++
			}
		}
	}
	return applied
}

// sweepMeanItem computes cluster i's averaged sweep signature into its flat
// row — float-identical to the reference (same members, same accumulation
// order) — and marks the row valid.
func (rr *roundRunner) sweepMeanItem(w, i int) {
	sw := &rr.sweep
	ws := &sw.ws[w]
	gs := sw.gs.set
	G := len(gs.grams)
	lo, hi := rr.memberOff[i], rr.memberOff[i+1]
	n := int(hi - lo)
	if n > sweepSigReads {
		n = sweepSigReads
	}
	sum := ensureFloat32(&ws.sum, G)
	count := ensureInt32(&ws.count, G)
	for g := range sum {
		sum[g] = 0
		count[g] = 0
	}
	sig := ensureInt32(&ws.sig, G)
	for _, m := range rr.members[lo : int(lo)+n] {
		sw.gs.idx.signatureInto(gs, rr.reads[m], sig)
		for g, v := range sig {
			if gs.mode == WGram && v == wgramAbsent {
				continue
			}
			sum[g] += float32(v)
			count[g]++
		}
	}
	mean := sw.meanBuf[i*G : (i+1)*G]
	for g := range mean {
		switch {
		case gs.mode == WGram && int(count[g])*2 <= n:
			mean[g] = -1 // absent in most members
		case count[g] == 0:
			mean[g] = -1
		default:
			mean[g] = sum[g] / float32(count[g])
		}
	}
	sw.meanOK[i] = true
}

// buildPostings inverts the averaged signatures into per-gram weighted
// posting lists and precomputes the per-candidate screen constants.
func (sw *sweepIndex) buildPostings(nr int, mode SignatureMode, G int) {
	off := ensureInt32(&sw.postOff, G+1)
	for g := range off {
		off[g] = 0
	}
	if mode == QGram {
		sw.base = ensureFloat32(&sw.base, nr)
	} else {
		sw.presCnt = ensureInt32(&sw.presCnt, nr)
	}
	total := 0
	for j := 0; j < nr; j++ {
		if !sw.meanOK[j] {
			continue
		}
		row := sw.meanBuf[j*G : (j+1)*G]
		if mode == QGram {
			var b float32
			for g, m := range row {
				if m > 0 {
					off[g+1]++
					total++
					b += m
				}
			}
			sw.base[j] = b
		} else {
			c := int32(0)
			for g, m := range row {
				if m >= 0 {
					off[g+1]++
					total++
					c++
				}
			}
			sw.presCnt[j] = c
		}
	}
	for g := 0; g < G; g++ {
		off[g+1] += off[g]
	}
	postJ := ensureInt32(&sw.postJ, total)
	postV := ensureFloat32(&sw.postV, total)
	cursor := ensureInt32(&sw.cursor, G)
	copy(cursor, off[:G])
	for j := 0; j < nr; j++ {
		if !sw.meanOK[j] {
			continue
		}
		row := sw.meanBuf[j*G : (j+1)*G]
		for g, m := range row {
			if (mode == QGram && m > 0) || (mode != QGram && m >= 0) {
				postJ[cursor[g]] = int32(j)
				postV[cursor[g]] = m
				cursor[g]++
			}
		}
	}
}

// sweepStragglerItem decides straggler i's merge (worker w): screen via the
// postings, recompute the survivors exactly, edit-check the reference's
// candidate sequence.
func (rr *roundRunner) sweepStragglerItem(w, i int) {
	sw := &rr.sweep
	if rr.memberOff[i+1]-rr.memberOff[i] > sw.small {
		return
	}
	o := rr.o
	ws := &sw.ws[w]
	gs := sw.gs.set
	G := len(gs.grams)
	nr := len(rr.roots)
	sig := ensureInt32(&ws.sig, G)
	sw.gs.idx.signatureInto(gs, rr.reads[rr.reps[i]], sig)

	// Screen accumulation over the straggler's present grams. Epoch stamps
	// make acc/shared valid only for candidates touched this straggler.
	acc := ensureFloat32(&ws.acc, nr)
	shared := ensureInt32(&ws.shared, nr)
	stamp := ensureInt32(&ws.stamp, nr)
	ws.epoch++
	ep := ws.epoch
	P := int32(0)
	if gs.mode == QGram {
		for g, v := range sig {
			if v == 0 {
				continue
			}
			P++
			for p := sw.postOff[g]; p < sw.postOff[g+1]; p++ {
				j := sw.postJ[p]
				if stamp[j] != ep {
					stamp[j] = ep
					acc[j] = 0
				}
				acc[j] += sw.postV[p]
			}
		}
	} else {
		for g, v := range sig {
			if v == wgramAbsent {
				continue
			}
			P++
			fv := float32(v)
			for p := sw.postOff[g]; p < sw.postOff[g+1]; p++ {
				j := sw.postJ[p]
				if stamp[j] != ep {
					stamp[j] = ep
					acc[j] = 0
					shared[j] = 0
				}
				d := fv - sw.postV[p]
				if d < 0 {
					d = -d
				}
				if d > wgramCap {
					d = wgramCap
				}
				acc[j] += d
				shared[j]++
			}
		}
	}

	// Approximate distance for every candidate; a bounded max-heap of the
	// smallest limit values yields the screen threshold.
	limit := sweepCandidates
	if scaled := nr / 20; scaled > limit {
		limit = scaled
	}
	dtil := ensureFloat32(&ws.dtil, nr)
	h := ws.heap[:0]
	for j := 0; j < nr; j++ {
		if j == i {
			continue
		}
		var d float32
		switch {
		case !sw.meanOK[j]:
			d = sigMissingFarMean
		case gs.mode == QGram:
			var wsum float32
			if stamp[j] == ep {
				wsum = acc[j]
			}
			d = float32(P) + sw.base[j] - 2*wsum
		default:
			var s int32
			var a float32
			if stamp[j] == ep {
				s, a = shared[j], acc[j]
			}
			if s < wgramMinOverlap {
				d = WGramFar // exact: overlap transfers as an integer
			} else {
				d = wgramCap*float32(P+sw.presCnt[j]-2*s) + a
			}
		}
		dtil[j] = d
		if len(h) < limit {
			h = append(h, d)
			siftUpF32(h)
		} else if d < h[0] {
			h[0] = d
			siftDownF32(h)
		}
	}
	T := math.MaxFloat64
	if limit > 0 && len(h) >= limit {
		T = float64(h[0]) + sweepScreenMargin
	}
	ws.heap = h[:0]

	// Exact distances for the survivors, via the reference kernel on the
	// reference-layout rows, then the reference (distance, index) order.
	cands := ws.cands[:0]
	for j := 0; j < nr; j++ {
		if j == i || float64(dtil[j]) > T {
			continue
		}
		var mean []float32
		if sw.meanOK[j] {
			mean = sw.meanBuf[j*G : (j+1)*G]
		}
		cands = append(cands, sweepCand{j, gs.meanDistance(sig, mean)})
	}
	ws.cands = cands[:0]
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].j < cands[b].j
	})
	if limit > len(cands) {
		limit = len(cands)
	}
	bestJ, bestD := -1, o.EditThreshold+1
	for _, c := range cands[:limit] {
		sw.editCalls[i]++
		if d, ok := rr.editScr[w].Within(rr.reads[rr.reps[i]], rr.reads[rr.reps[c.j]], o.EditThreshold); ok && d < bestD {
			bestJ, bestD = c.j, d
		}
	}
	if bestJ >= 0 {
		sw.bestJ[i] = int32(bestJ)
	}
}

// siftUpF32 restores the max-heap property after appending to h.
func siftUpF32(h []float32) {
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDownF32 restores the max-heap property after replacing h[0].
func siftDownF32(h []float32) {
	i, n := 0, len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		big := l
		if r := l + 1; r < n && h[r] > h[l] {
			big = r
		}
		if h[i] >= h[big] {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
