// Bit-parallel edit-distance kernels (Myers 1999, in Hyyrö's global-distance
// formulation). The classic DP computes one cell per step; Myers' recurrence
// encodes a whole DP column as two bit-vectors of vertical deltas (VP bit i
// set when D(i+1,j)−D(i,j) = +1, VN when −1) and advances all 64 cells of a
// machine word with a constant number of word operations. Over the 4-letter
// DNA alphabet the only per-pattern state is a tiny Peq table: one bitmask
// per base marking the pattern positions holding that base.
//
// Three kernels share the recurrence. For patterns of at most 64 bases the
// whole column fits in one word (myers64); patterns of 65–128 bases get a
// fully unrolled two-word specialization whose Peq table and block vectors
// live in registers and on the stack (myers128 — the common case for
// sequencing-length reads); anything longer is split into ⌈m/64⌉ block
// words with the ±1 horizontal delta carried from block to block
// Hyyrö-style (myersBlocked), the block vectors living in the Scratch so
// steady-state calls allocate nothing. All kernels track the running
// bottom-row score D(m,j); the thresholded form bails as soon as
// score − (columns remaining) exceeds k, which is sound because the bottom
// row of the DP changes by at most ±1 per column.
//
// The DP kernels in edit.go remain the reference implementation; the
// dispatchers in Levenshtein/Within pick bit-parallel when profitable (see
// bpWithinProfitable) and internal/bench proves the two families return
// identical distances and verdicts.
package edit

import "dnastore/internal/dna"

// wordBits is the DP-cells-per-word width of the bit-parallel kernels.
const wordBits = 64

// bpMinPattern is the pattern length below which the dispatcher keeps the
// banded DP for Within: at a handful of rows the band is already only a few
// dozen cells and the Peq/bit bookkeeping has nothing left to amortize.
const bpMinPattern = 8

// bpWithinProfitable decides Within's kernel: the banded DP touches
// ~(2k+1)·max(la,lb) cells while the bit-parallel kernel always pays
// ⌈min/64⌉·max word-steps, so the band must be a few cells per word-step
// wide before bit-parallelism wins. The verdict and distance are identical
// either way; only the speed differs.
func bpWithinProfitable(la, lb, k int) bool {
	m := la
	if lb < m {
		m = lb
	}
	if m < bpMinPattern {
		return false
	}
	blocks := (m + wordBits - 1) / wordBits
	return 2*k+1 >= 3*blocks
}

// LevenshteinBP is the bit-parallel edit distance: identical to
// LevenshteinDP's result, at O(⌈min/64⌉·max) word operations.
//
//dnalint:hotpath
func (s *Scratch) LevenshteinBP(a, b dna.Seq) int {
	p, t := a, b
	if len(p) > len(t) {
		p, t = t, p
	}
	if len(p) == 0 {
		return len(t)
	}
	if len(p) <= wordBits {
		d, _ := myers64(p, t, -1)
		return d
	}
	if len(p) <= 2*wordBits {
		d, _ := myers128(p, t, -1)
		return d
	}
	d, _ := s.myersBlocked(p, t, -1)
	return d
}

// WithinBP reports whether the edit distance between a and b is at most k,
// returning the distance when it is — the bit-parallel counterpart of
// WithinDP, with identical results on every input. It tracks the running
// bottom-row score and stops as soon as the distance provably exceeds k.
//
//dnalint:hotpath
func (s *Scratch) WithinBP(a, b dna.Seq, k int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	la, lb := len(a), len(b)
	if la-lb > k || lb-la > k {
		return 0, false
	}
	if la == 0 {
		return lb, lb <= k
	}
	if lb == 0 {
		return la, la <= k
	}
	// The distance never exceeds max(la, lb); clamp hostile thresholds the
	// same way WithinDP does (no bit-parallel state depends on k, but the
	// clamp keeps the early-exit arithmetic in comfortable integer range).
	if m := max(la, lb); k > m {
		k = m
	}
	p, t := a, b
	if len(p) > len(t) {
		p, t = t, p
	}
	if len(p) <= wordBits {
		return myers64(p, t, k)
	}
	if len(p) <= 2*wordBits {
		return myers128(p, t, k)
	}
	return s.myersBlocked(p, t, k)
}

// myers64 runs the single-word recurrence: pattern length m ≤ 64, text of
// any length. k < 0 disables the threshold (the distance is always
// returned with ok=true); k ≥ 0 returns (0, false) as soon as the distance
// provably exceeds k. The Peq table lives on the stack — no allocation.
//
//dnalint:hotpath
func myers64(pattern, text dna.Seq, k int) (int, bool) {
	var peq [dna.NumBases]uint64
	for i, c := range pattern {
		peq[c&3] |= 1 << uint(i)
	}
	m := len(pattern)
	score := m
	top := uint(m - 1) // bit of the pattern's last row
	vp := ^uint64(0)   // column 0: every vertical delta is +1 (D(i,0)=i)
	vn := uint64(0)
	n := len(text)
	for j := 0; j < n; j++ {
		eq := peq[text[j]&3]
		// D0 marks rows whose DP cell equals its upper-left neighbour.
		d0 := (((eq & vp) + vp) ^ vp) | eq | vn
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		score += int((hp >> top) & 1)
		score -= int((hn >> top) & 1)
		// Shift the horizontal deltas down one row; the +1 shifted into HP
		// is the top boundary D(0,j) − D(0,j−1) = +1 of the global DP.
		hp = hp<<1 | 1
		hn = hn << 1
		vp = hn | ^(d0 | hp)
		vn = d0 & hp
		// The bottom row changes by at most ±1 per column, so the final
		// distance is at least score − (columns remaining).
		if k >= 0 && score-(n-j-1) > k {
			return 0, false
		}
	}
	if k >= 0 && score > k {
		return 0, false
	}
	return score, true
}

// myers128 is the two-word specialization of the blocked recurrence for
// patterns of 65–128 bases — the band sequencing-length reads live in. It is
// myersBlocked with blocks fixed at two and the loop unrolled: the Peq table
// is two stack arrays, the VP/VN block vectors are four register variables,
// and the inter-block ±1 horizontal carry collapses to two bit pulls (HP and
// HN are disjoint, so at most one of the carries is set — exactly the
// hin ∈ {−1, 0, +1} of the general kernel). Threshold semantics and results
// are identical to myersBlocked; no Scratch, no allocation.
//
//dnalint:hotpath
func myers128(pattern, text dna.Seq, k int) (int, bool) {
	var peqLo, peqHi [dna.NumBases]uint64
	for i, c := range pattern {
		if i < wordBits {
			peqLo[c&3] |= 1 << uint(i)
		} else {
			peqHi[c&3] |= 1 << uint(i-wordBits)
		}
	}
	m := len(pattern)
	score := m
	top := uint(m - 1 - wordBits) // last-row bit within the high word
	vp0, vp1 := ^uint64(0), ^uint64(0)
	vn0, vn1 := uint64(0), uint64(0)
	n := len(text)
	for j := 0; j < n; j++ {
		c := text[j] & 3
		// Low word: the top boundary D(0,j) − D(0,j−1) = +1 is constant.
		eq := peqLo[c]
		d0 := (((eq & vp0) + vp0) ^ vp0) | eq | vn0
		hp := vn0 | ^(d0 | vp0)
		hn := d0 & vp0
		carryPos := hp >> 63
		carryNeg := hn >> 63
		hp = hp<<1 | 1
		hn = hn << 1
		vp0 = hn | ^(d0 | hp)
		vn0 = d0 & hp
		// High word: carry the boundary delta in, Hyyrö-style. A −1 carried
		// in lets the first cell take the diagonal, like a matching base.
		eq = peqHi[c] | carryNeg
		d0 = (((eq & vp1) + vp1) ^ vp1) | eq | vn1
		hp = vn1 | ^(d0 | vp1)
		hn = d0 & vp1
		score += int((hp >> top) & 1)
		score -= int((hn >> top) & 1)
		hp = hp<<1 | carryPos
		hn = hn<<1 | carryNeg
		vp1 = hn | ^(d0 | hp)
		vn1 = d0 & hp
		if k >= 0 && score-(n-j-1) > k {
			return 0, false
		}
	}
	if k >= 0 && score > k {
		return 0, false
	}
	return score, true
}

// blockVectors returns VP/VN block slices of length blocks backed by the
// scratch, initialized to the column-0 state (all vertical deltas +1).
func (s *Scratch) blockVectors(blocks int) (vp, vn []uint64) {
	if cap(s.bvp) < blocks {
		s.bvp = make([]uint64, blocks)
		s.bvn = make([]uint64, blocks)
	}
	vp, vn = s.bvp[:blocks], s.bvn[:blocks]
	for b := range vp {
		vp[b] = ^uint64(0)
		vn[b] = 0
	}
	return vp, vn
}

// peqBlocks fills the scratch's per-base Peq block table for the pattern.
// Bits at and above the pattern length stay zero; the garbage the recurrence
// accumulates there never propagates downward (word ops only carry upward),
// so the cells up to row m remain exact.
func (s *Scratch) peqBlocks(pattern dna.Seq, blocks int) {
	for c := range s.peq {
		if cap(s.peq[c]) < blocks {
			s.peq[c] = make([]uint64, blocks)
		}
		pe := s.peq[c][:blocks]
		for i := range pe {
			pe[i] = 0
		}
		s.peq[c] = pe
	}
	for i, c := range pattern {
		s.peq[c&3][i/wordBits] |= 1 << (uint(i) % wordBits)
	}
}

// myersBlocked is the blocked (Hyyrö) variant for patterns longer than one
// word: the column is split into ⌈m/64⌉ block words and the ±1 horizontal
// delta at each block boundary is carried into the next block's recurrence.
// Threshold semantics match myers64. All state lives in the Scratch.
//
//dnalint:hotpath
func (s *Scratch) myersBlocked(pattern, text dna.Seq, k int) (int, bool) {
	m := len(pattern)
	blocks := (m + wordBits - 1) / wordBits
	s.peqBlocks(pattern, blocks)
	vps, vns := s.blockVectors(blocks)
	score := m
	top := uint((m - 1) % wordBits) // last-row bit within the last block
	last := blocks - 1
	n := len(text)
	for j := 0; j < n; j++ {
		ci := text[j] & 3
		eqs := s.peq[ci]
		hin := 1 // top boundary: D(0,j) − D(0,j−1) = +1
		for b := 0; b <= last; b++ {
			eq := eqs[b]
			vp, vn := vps[b], vns[b]
			var hinNeg, hinPos uint64
			if hin < 0 {
				hinNeg = 1
			} else if hin > 0 {
				hinPos = 1
			}
			// A −1 carried in lets the block's first cell take the
			// diagonal, exactly as a matching base would.
			eq |= hinNeg
			d0 := (((eq & vp) + vp) ^ vp) | eq | vn
			hp := vn | ^(d0 | vp)
			hn := d0 & vp
			if b == last {
				score += int((hp >> top) & 1)
				score -= int((hn >> top) & 1)
			} else {
				hin = int((hp>>63)&1) - int((hn>>63)&1)
			}
			hp = hp<<1 | hinPos
			hn = hn<<1 | hinNeg
			vps[b] = hn | ^(d0 | hp)
			vns[b] = d0 & hp
		}
		if k >= 0 && score-(n-j-1) > k {
			return 0, false
		}
	}
	if k >= 0 && score > k {
		return 0, false
	}
	return score, true
}
