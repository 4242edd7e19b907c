// Indexed straggler sweep — the fast-path replacement for the reference
// stragglerSweep (the test-only oracle in reference_test.go). The reference
// ranks, for every straggler, every other cluster by exact meanDistance and
// then fully sorts the list: O(S·R·G + S·R log R) for S stragglers over R
// clusters. The sweep here keeps the identical outcome but ranks the
// candidates by a cheaper screen key first:
//
//  1. a screen pass gives every candidate cluster j a key d̃_j: exact in
//     QGram mode (bit-sliced member counts), within a rounding bound ε of
//     meanDistance in WGram mode (gram-inverted postings);
//  2. a bounded max-heap finds T₀, the limit-th smallest d̃;
//  3. a candidate with d̃ < T₀ − 2ε is in the reference's exact top-limit
//     list, one with d̃ > T₀ + 2ε is out, and only the band between gets the
//     exact reference meanDistance; a (distance, index) sort of the band
//     fills the list's remaining slots. The sweep edit-checks every member
//     of the list, so beyond the band exact distances matter only for ties
//     at the winning edit distance, and those are computed lazily. The
//     edit-checked set and the chosen candidate — and therefore every merge
//     and every Stats counter — equal the reference sweep's.
//
// QGram. A cluster's mean is m_g = k_g/n: n ≤ sweepSigReads members count,
// and k_g of them hold gram g. Bit-planes hold every k_g in binary, so with
// the straggler's presence set P, B = Σ_g k_g and
// S = Σ_{g∈P} k_g = Σ_p 2^p·popcount(P ∧ plane_p),
//
//	R = Σ_g |sig_g − m_g| = |P| + (B − 2S)/n
//
// is the real distance to the exact mean. Every such n divides
// sweepKeyScale = 60, so the key 60·R is an integer and distinct values of R
// lie at least 1/60 apart. meanDistance's float32 d lies within 1.3·10⁻³ of
// R: each of its G = sweepGrams = 144 terms |sig − k/n| lies in [0, 1] and
// carries at most two roundings (the quotient and the subtraction, 2u), and
// a float32 sum of G terms, in any order, lies within γ_G·Σ|xᵢ| ≤ γ_G·G of
// the real sum, with γ_G = G·u/(1−G·u) and u = 2⁻²⁴ (Higham, "Accuracy and
// Stability of Numerical Algorithms", §4.2). As 1.3·10⁻³ < 1/120, d orders
// candidates of distinct R exactly as R does: R < T₀ is in the list, R > T₀
// is out, and the band (ε = 0) is the exact tie group R = T₀.
//
// WGram. With presence counts |P| (straggler) and M_j (mean) and shared_j
// co-present grams,
//
//	d = wgramCap·(|P| + M_j − 2·shared_j) + Σ_{co-present} min(|sig−mean|, cap),
//
// so the screen accumulates the drift sum over the postings of the grams the
// straggler holds. shared_j is an exact integer, so the overlap <
// wgramMinOverlap ⇒ WGramFar rule transfers exactly.
package cluster

import (
	"math"
	"math/bits"
	"sort"

	"dnastore/internal/exec"
)

// sweepGrams is the sweep's gram count: triple the per-round count, since
// the sweep ranks every cluster and needs the sharper signature.
const sweepGrams = 3 * numGrams

// The QGram screen's bit-slicing: sweepPlanes bit-planes of sweepWords
// packed words hold a member count k ≤ sweepSigReads per gram, and
// sweepKeyScale is a multiple of every member count n ≤ sweepSigReads, so
// sweepKeyScale·R is an integer. TestSweepKeyPremise checks both against
// sweepSigReads.
const (
	sweepPlanes   = 3
	sweepWords    = (sweepGrams + 63) / 64
	sweepKeyScale = 60
)

// screenPlanes is written out for three planes of three words: this fails to
// compile otherwise.
const _ = uint(sweepPlanes-3) + uint(3-sweepPlanes) + uint(sweepWords-3) + uint(3-sweepWords)

// planeRow is one cluster's bit-sliced member counts: bit g of row[p] is bit
// p of k_g, the number of counted members holding gram g.
type planeRow [sweepPlanes][sweepWords]uint64

// The WGram screen's rounding bound ε_W: |d̃ − d| ≤ ε_W for every candidate,
// where d is meanDistance's float32 result and d̃ the screen's. Both sum the
// same G float32 terms in a different order and grouping; the terms (drifts
// capped at wgramCap, and wgramCap for a gram present on one side only) lie
// in [0, wgramCap] and are the same float32 values in both forms.
// meanDistance adds them in gram order; the screen adds the co-present
// drifts and then the exact wgramCap·(|P| + M − 2·shared). Each is within
// γ_G·G·wgramCap of the real sum (γ_G as above), so ε_W = 2γ_G·G·wgramCap ≈
// 0.0593.
//
// γ_G counts G roundings where a sum of G terms has G − 1; the slack, over
// 10⁻⁵, covers the float64 rounding (below 10⁻¹²) of the band edges T₀ ± 2ε.
const (
	f32Unit    = 1.0 / (1 << 24)
	sweepGamma = sweepGrams * f32Unit / (1 - sweepGrams*f32Unit)
	sweepEpsW  = 2 * sweepGamma * sweepGrams * wgramCap
)

// sweepEps returns the screen's bound ε for mode: 0 for the exact QGram key.
func sweepEps(mode SignatureMode) float64 {
	if mode == QGram {
		return 0
	}
	return sweepEpsW
}

// sweepSigReads bounds how many members contribute to a cluster's averaged
// sweep signature: the mean denoises individual read errors, and a handful
// of members is enough for the averaging to converge.
const sweepSigReads = 6

// The planes must hold every count up to sweepSigReads: this fails to
// compile otherwise.
const _ = uint(1<<sweepPlanes - 1 - sweepSigReads)

// sweepCand is a candidate cluster for a straggler merge, ranked by distance
// to the cluster's averaged signature.
type sweepCand struct {
	j int
	d float32
}

// candLess is the reference's candidate order: distance, then index.
func candLess(a, b sweepCand) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.j < b.j
}

// candSlice sorts candidates by candLess. The pointer receiver keeps the
// sort.Interface conversion allocation-free.
type candSlice []sweepCand

func (p *candSlice) Len() int           { return len(*p) }
func (p *candSlice) Less(i, j int) bool { return candLess((*p)[i], (*p)[j]) }
func (p *candSlice) Swap(i, j int)      { (*p)[i], (*p)[j] = (*p)[j], (*p)[i] }

// sweepWorker is one worker's reusable straggler-sweep state. Slot w is
// touched only by worker w (exec.ParallelForW), never shared.
//
//dnalint:scratch
type sweepWorker struct {
	sig    []int32            // straggler / member signature buffer
	pres   [sweepWords]uint64 // straggler / member packed presence (QGram)
	sum    []float32          // mean-signature accumulators (WGram)
	count  []int32
	acc    []float32 // per-candidate drift sum A_j (WGram)
	shared []int32   // per-candidate co-present gram count (WGram)
	stamp  []int32   // epoch stamps validating acc/shared entries
	epoch  int32
	dtil   []float32 // per-candidate approximate distance
	heap   []float32 // bounded max-heap of the smallest approximations
	cands  []sweepCand
	band   []sweepCand // candidates within 2ε of T₀, with exact distances
	ties   []int32     // cands indices at the best edit distance so far
}

// sweepIndex is the shared (build-once-per-pass) state of the indexed sweep:
// the sweep gram set, the flat averaged signatures, the per-mode screen
// index (QGram bit-planes, WGram postings) and the per-straggler outputs.
// Built serially or in disjoint-row parallel phases; read-only while
// stragglers are processed.
//
//dnalint:scratch
type sweepIndex struct {
	gs          gramSetScratch
	small       int32
	sizesSorted []int32

	meanBuf []float32 // nr × G flat averaged signatures
	meanOK  []bool    // row validity (replaces the reference's nil rows)

	// QGram bit-sliced member counts, one row per cluster.
	planes   []planeRow
	countSum []int32 // B_j = Σ_g k_jg
	keyScale []int32 // sweepKeyScale / n_j

	// WGram postings: for gram g, candidates postJ[postOff[g]:postOff[g+1]]
	// with their present (mean ≥ 0) mean values in postV.
	postOff []int32
	postJ   []int32
	postV   []float32
	cursor  []int32
	presCnt []int32 // present-gram count per candidate

	bestJ      []int32 // straggler outputs: chosen dense root, -1 none
	editCalls  []int32
	recomputes []int32 // exact meanDistance calls: band plus lazy ties

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

// meanRow returns cluster j's averaged signature, nil when its row is not
// valid (the reference's missing signature).
func (sw *sweepIndex) meanRow(j int) []float32 {
	if !sw.meanOK[j] {
		return nil
	}
	G := len(sw.gs.set.codes)
	return sw.meanBuf[j*G : (j+1)*G]
}

// runSweepPass executes one straggler-sweep pass on the fast path: identical
// merges, edit-distance calls and Stats to the reference sweep
// (reference_test.go), via the indexed candidate screen. Returns the number
// of merges applied.
func (rr *roundRunner) runSweepPass(pass uint64) int {
	nr := rr.prepareSweep(pass)
	sw := &rr.sweep
	exec.ParallelForW(rr.ctx, rr.o.Workers, nr, sw.stragItemFn)

	// Serial apply in straggler order, exactly like the reference.
	applied := 0
	for i := 0; i < nr; i++ {
		rr.stats.EditDistanceCalls += int(sw.editCalls[i])
		rr.stats.SweepRecomputes += int(sw.recomputes[i])
		if j := sw.bestJ[i]; j >= 0 {
			if rr.uf.union(int(rr.roots[i]), int(rr.roots[j])) {
				rr.stats.Merges++
				applied++
			}
		}
	}
	return applied
}

// prepareSweep builds pass's sweep index over the current clusters and
// presets every straggler's outputs to "no merge", so skipped or panicked
// items change nothing. Returns the cluster count.
func (rr *roundRunner) prepareSweep(pass uint64) int {
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

	// Sweep grams, fresh per pass, drawn from the same derived stream as the
	// reference.
	G := sweepGrams
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
	if o.Mode == QGram {
		if cap(sw.planes) < nr {
			sw.planes = make([]planeRow, nr)
		}
		sw.planes = sw.planes[:nr]
		sw.countSum = ensureInt32(&sw.countSum, nr)
		sw.keyScale = ensureInt32(&sw.keyScale, nr)
	}
	exec.ParallelForW(rr.ctx, o.Workers, nr, sw.meanItemFn)
	if o.Mode == WGram {
		// Postings over the averaged signatures (serial, O(nr·G)).
		sw.buildPostings(nr, G)
	}

	sw.bestJ = ensureInt32(&sw.bestJ, nr)
	sw.editCalls = ensureInt32(&sw.editCalls, nr)
	sw.recomputes = ensureInt32(&sw.recomputes, nr)
	for i := 0; i < nr; i++ {
		sw.bestJ[i] = -1
		sw.editCalls[i] = 0
		sw.recomputes[i] = 0
	}
	return nr
}

// sweepMeanItem computes cluster i's averaged sweep signature into its flat
// row — float-identical to the reference (same members, same accumulation
// order) — and marks the row valid. In QGram mode it also fills the row's
// bit-planes, its count sum B and its key scale.
func (rr *roundRunner) sweepMeanItem(w, i int) {
	sw := &rr.sweep
	ws := &sw.ws[w]
	gs := sw.gs.set
	G := len(gs.codes)
	lo, hi := rr.memberOff[i], rr.memberOff[i+1]
	n := int(hi - lo)
	if n > sweepSigReads {
		n = sweepSigReads
	}
	mean := sw.meanBuf[i*G : (i+1)*G]
	if gs.mode == QGram {
		// The reference sums n presence bits per gram in float32 (exact
		// small integers) and divides by the member count n, so
		// float32(k)/float32(n) from the planes is the same float.
		row := &sw.planes[i]
		*row = planeRow{}
		for _, m := range rr.members[lo : int(lo)+n] {
			sw.gs.idx.qsigBitsInto(gs, rr.reads[m], ws.pres[:sigWords(G)])
			addPlanes(row, &ws.pres)
		}
		sw.countSum[i] = planesMeanRow(row, n, mean)
		sw.keyScale[i] = int32(sweepKeyScale / n)
		sw.meanOK[i] = true
		return
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
			if v == wgramAbsent {
				continue
			}
			sum[g] += float32(v)
			count[g]++
		}
	}
	for g := range mean {
		switch {
		case int(count[g])*2 <= n:
			mean[g] = -1 // absent in most members
		default:
			mean[g] = sum[g] / float32(count[g])
		}
	}
	sw.meanOK[i] = true
}

// addPlanes adds one member's packed presence words into a row's bit-planes:
// a ripple-carry add of one bit per gram. The caller keeps every count below
// 1<<sweepPlanes.
//
//dnalint:hotpath
func addPlanes(row *planeRow, member *[sweepWords]uint64) {
	for w, c := range member {
		for p := 0; p < sweepPlanes && c != 0; p++ {
			x := row[p][w]
			row[p][w] = x ^ c
			c &= x
		}
	}
}

// planesMeanRow writes the mean row float32(k_g)/float32(n) of a row's
// bit-planes into mean (one entry per gram) and returns B = Σ_g k_g.
//
//dnalint:hotpath
func planesMeanRow(row *planeRow, n int, mean []float32) int32 {
	var quot [1 << sweepPlanes]float32
	for k := range quot {
		quot[k] = float32(k) / float32(n)
	}
	for g := range mean {
		w, b := g>>6, uint(g)&63
		k := 0
		for p := range row {
			k |= int(row[p][w]>>b&1) << p
		}
		mean[g] = quot[k]
	}
	B := 0
	for p := range row {
		for _, x := range row[p] {
			B += bits.OnesCount64(x) << p
		}
	}
	return int32(B)
}

// buildPostings inverts the WGram averaged signatures into per-gram weighted
// posting lists and counts each candidate's present grams.
func (sw *sweepIndex) buildPostings(nr, G int) {
	off := ensureInt32(&sw.postOff, G+1)
	for g := range off {
		off[g] = 0
	}
	sw.presCnt = ensureInt32(&sw.presCnt, nr)
	total := 0
	for j := 0; j < nr; j++ {
		if !sw.meanOK[j] {
			continue
		}
		c := int32(0)
		for g, m := range sw.meanBuf[j*G : (j+1)*G] {
			if m >= 0 {
				off[g+1]++
				total++
				c++
			}
		}
		sw.presCnt[j] = c
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
		for g, m := range sw.meanBuf[j*G : (j+1)*G] {
			if m >= 0 {
				postJ[cursor[g]] = int32(j)
				postV[cursor[g]] = m
				cursor[g]++
			}
		}
	}
}

// sweepStragglerItem decides straggler i's merge (worker w): edit-check the
// list sweepSelect returns and keep the candidate at the smallest edit
// distance, on a tie the first in exact (distance, index) order — the
// reference's choice.
func (rr *roundRunner) sweepStragglerItem(w, i int) {
	sw := &rr.sweep
	if rr.memberOff[i+1]-rr.memberOff[i] > sw.small {
		return
	}
	ws := &sw.ws[w]
	cands, nIn, recomputes := rr.sweepSelect(ws, i)
	sw.recomputes[i] = int32(recomputes)
	rep := rr.reads[rr.reps[i]]
	k := rr.o.EditThreshold
	bestD := k + 1
	ties := ws.ties[:0]
	for c := range cands {
		sw.editCalls[i]++
		d, ok := rr.editScr[w].Within(rep, rr.reads[rr.reps[cands[c].j]], k)
		if !ok || d > bestD {
			continue
		}
		if d < bestD {
			bestD, ties = d, ties[:0]
		}
		ties = append(ties, int32(c))
	}
	ws.ties = ties[:0]
	if len(ties) == 0 {
		return
	}
	if len(ties) > 1 {
		// Only the band's distances are exact; the list ahead of it carries
		// its screen key d̃.
		for _, c := range ties {
			if int(c) < nIn {
				cands[c].d = sw.gs.set.meanDistance(ws.sig, sw.meanRow(cands[c].j))
				sw.recomputes[i]++
			}
		}
	}
	best := cands[ties[0]]
	for _, c := range ties[1:] {
		if candLess(cands[c], best) {
			best = cands[c]
		}
	}
	sw.bestJ[i] = int32(best.j)
}

// sweepSelect returns straggler i's edit-check list: as a set, the first
// limit candidates of the reference's exact (meanDistance, index) ranking.
// The first nIn lie below the band and carry their screen key d̃; the rest
// come from the band in exact (distance, index) order. recomputes
// counts the band's meanDistance calls. The straggler's signature is left in
// ws.sig.
func (rr *roundRunner) sweepSelect(ws *sweepWorker, i int) (cands []sweepCand, nIn, recomputes int) {
	sw := &rr.sweep
	gs := sw.gs.set
	nr := len(rr.roots)
	sig := ensureInt32(&ws.sig, len(gs.codes))
	sw.gs.idx.signatureInto(gs, rr.reads[rr.reps[i]], sig)
	dtil := sw.screen(ws, sig, nr)

	limit := sweepCandidates
	if scaled := nr / 20; scaled > limit {
		limit = scaled
	}
	// With at most limit candidates every one is in the list. Otherwise a
	// bounded max-heap of the limit smallest d̃ yields T₀ and the band edges.
	lo, hi := math.Inf(1), math.Inf(1)
	if nr-1 > limit {
		h := ws.heap[:0]
		for j, d := range dtil {
			if j == i {
				continue
			}
			if len(h) < limit {
				h = append(h, d)
				siftUpF32(h)
			} else if d < h[0] {
				h[0] = d
				siftDownF32(h)
			}
		}
		ws.heap = h[:0]
		eps2 := 2 * sweepEps(gs.mode)
		lo, hi = float64(h[0])-eps2, float64(h[0])+eps2
	}

	cands, band := ws.cands[:0], ws.band[:0]
	for j, d := range dtil {
		switch {
		case j == i:
		case float64(d) < lo:
			cands = append(cands, sweepCand{j, d})
		case float64(d) <= hi:
			band = append(band, sweepCand{j, gs.meanDistance(sig, sw.meanRow(j))})
		}
	}
	ws.band = band
	sort.Sort((*candSlice)(&ws.band)) // through ws: a local's address would escape
	nIn, recomputes = len(cands), len(band)
	if n := limit - nIn; n < len(band) {
		band = band[:n]
	}
	cands = append(cands, band...)
	ws.cands = cands[:0]
	return cands, nIn, recomputes
}

// screen fills ws.dtil[j] with the screen key d̃ of sig against cluster j's
// averaged signature, for every j < nr, and returns it: the exact integer
// sweepKeyScale·R in QGram mode, the approximate distance in WGram mode.
func (sw *sweepIndex) screen(ws *sweepWorker, sig []int32, nr int) []float32 {
	dtil := ensureFloat32(&ws.dtil, nr)
	if sw.gs.set.mode == QGram {
		P := packPresence(sig, &ws.pres)
		screenPlanes(&ws.pres, P, sw.planes[:nr], sw.countSum[:nr], sw.keyScale[:nr], sw.meanOK[:nr], dtil)
		return dtil
	}

	// WGram: epoch stamps make the accumulators valid only for candidates
	// touched by sig.
	acc := ensureFloat32(&ws.acc, nr)
	shared := ensureInt32(&ws.shared, nr)
	stamp := ensureInt32(&ws.stamp, nr)
	ws.epoch++
	ep := ws.epoch
	P := int32(0)
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
	for j := range dtil {
		var s int32
		var a float32
		if stamp[j] == ep {
			s, a = shared[j], acc[j]
		}
		switch {
		case !sw.meanOK[j]:
			dtil[j] = sigMissingFarMean
		case s < wgramMinOverlap:
			dtil[j] = WGramFar // exact: overlap transfers as an integer
		default:
			dtil[j] = wgramCap*float32(P+sw.presCnt[j]-2*s) + a
		}
	}
	return dtil
}

// packPresence packs a QGram signature of at most 64·sweepWords grams into
// presence words (bit g set iff sig[g] is 1) and returns |P|, the number of
// grams present.
//
//dnalint:hotpath
func packPresence(sig []int32, dst *[sweepWords]uint64) int {
	*dst = [sweepWords]uint64{}
	P := 0
	for g, v := range sig {
		if v != 0 {
			dst[g>>6] |= 1 << (uint(g) & 63)
			P++
		}
	}
	return P
}

// screenPlanes is the QGram screen: for every candidate j it writes the
// exact key sweepKeyScale·R_j = sweepKeyScale·|P| + (sweepKeyScale/n_j)·(B_j
// − 2S_j), with S_j = Σ_p 2^p·popcount(P ∧ plane_jp), into dtil[j]
// (sigMissingFarMean for an invalid row). The key is at most
// sweepKeyScale·sweepGrams, so the float32 holds it exactly. The popcounts
// are written out word by word: a loop over the nine words runs about three
// times slower.
//
//dnalint:hotpath
func screenPlanes(pres *[sweepWords]uint64, P int, planes []planeRow, countSum, keyScale []int32, ok []bool, dtil []float32) {
	x0, x1, x2 := pres[0], pres[1], pres[2]
	base := sweepKeyScale * P
	planes, countSum, keyScale, ok = planes[:len(dtil)], countSum[:len(dtil)], keyScale[:len(dtil)], ok[:len(dtil)]
	for j := range dtil {
		if !ok[j] {
			dtil[j] = sigMissingFarMean
			continue
		}
		r := &planes[j]
		S := bits.OnesCount64(x0&r[0][0]) + bits.OnesCount64(x1&r[0][1]) + bits.OnesCount64(x2&r[0][2]) +
			2*(bits.OnesCount64(x0&r[1][0])+bits.OnesCount64(x1&r[1][1])+bits.OnesCount64(x2&r[1][2])) +
			4*(bits.OnesCount64(x0&r[2][0])+bits.OnesCount64(x1&r[2][1])+bits.OnesCount64(x2&r[2][2]))
		dtil[j] = float32(base + int(keyScale[j])*(int(countSum[j])-2*S))
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
