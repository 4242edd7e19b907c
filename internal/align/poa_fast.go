package align

import "dnastore/internal/dna"

// Windowed wavefront alignment kernel.
//
// The exhaustive kernel (poa_dp.go) fills every cell of every node row:
// O(nodes·m) with m the read length. For the clusters reconstruction actually
// sees, the optimal alignment hugs the diagonal — a read differs from the
// graph it came from by a handful of edits — so almost all of that table is
// spent computing scores that cannot possibly be on the optimal path. This
// kernel prunes them with an exact score bound:
//
//	B        = matchScore·m − slack        (required final score)
//	bound(j) = B − matchScore·(m−j)        (= 2j − slack with current scores)
//
// Any cell on an alignment whose final score reaches B must itself score at
// least bound(j): the remaining m−j read bases can contribute at most
// matchScore each. Cells below bound(j) are "dead" and never computed. The
// pruning is *exact*, not heuristic:
//
//   - A dead predecessor's contribution to any cell is strictly below that
//     cell's bound (diag adds ≤ matchScore and bound grows by exactly
//     matchScore per column; vert/horz add gapScore < 0), so dropping it can
//     neither change nor tie the winner of any live cell. Candidate order is
//     the same as the reference (predecessors in declaration order, diagonal
//     then vertical, horizontal last, strict >), so tie-breaking is identical.
//   - Computed values are never above the true DP values, so a cell that
//     computes below its bound is genuinely dead ("computed < bound ⇔ true
//     value < bound") — live detection cannot miss a live cell.
//   - If the best sink score comes out below B (= bound(m)), no alignment
//     reaches the bound at all: the read misses this band. The argument
//     holds for any slack, so alignToGraph retries once at wideBandFactor
//     times the slack and falls back to the exhaustive DP only when that
//     wider band misses too.
//
// Either way the resulting pair list is bit-identical to alignToGraphDP
// (differential tests in poa_fast_test.go and recon's FuzzReconDispatch).
//
// Each row's live window [winLo, winHi] is discovered during its sweep; the
// next row only sweeps the union of its predecessors' windows plus one cell
// (diagonal reach), then extends right while horizontal-only cells stay
// above the bound. Single-predecessor nodes — the vast majority in a POA
// graph, which is a chain with occasional bubbles — take a specialized
// straight-line sweep with the predecessor row and its window hoisted out of
// the loop.

// floorScore doubles as the reference kernel's "no candidate" initializer and
// the value substituted for pruned cells; it is low enough that adding any
// move penalty keeps it below every reachable score.
const floorScore = -1 << 30

// alignSlack sizes the first band's slack for a read of length m. The slack
// is the score deficit (vs. a perfect all-match alignment) the banded sweep
// still tolerates: with the current scores one substitution costs 5 and one
// indel 6, so slack/5 is roughly the number of edits a read may carry before
// the band misses. max(56, m/2) keeps the live band (≈ 5·slack/12 cells per
// row) a fraction of the full row at realistic strand lengths. A read's
// deficit is measured against the graph's best path, which still carries
// errors of the reads merged before it, so ordinary reads miss too: at the
// paper's Table III point (128 nt, 6 % IID, coverage 10) about one graph
// alignment in ten misses the first band.
func alignSlack(m int) int {
	s := m / 2
	if s < 56 {
		s = 56
	}
	return s
}

// wideBandFactor scales alignSlack for alignToGraph's one retry before the
// exhaustive DP. At the Table III point the second band catches all but
// about one in five hundred of the first band's misses, and a wider band
// costs a fraction of the full table.
const wideBandFactor = 2

// alignToGraphSlack is the windowed kernel at an explicit slack. It returns
// ok == false when no alignment reaches the pruning bound, in which case the
// caller must retry with more slack or run the exhaustive DP; when ok, the
// pair list is bit-identical to alignToGraphDP's.
func (g *Graph) alignToGraphSlack(s dna.Seq, slack int) ([]pair, bool) {
	m := len(s)
	order := g.topoOrder()
	nNodes := len(g.nodes)
	sc := &g.scratch

	stride := m + 1
	sc.score = growInts(sc.score, nNodes*stride)
	score := sc.score
	if cap(sc.move) < nNodes*stride {
		sc.move = make([]uint8, nNodes*stride)
		sc.from = make([]int32, nNodes*stride)
	}
	move := sc.move[:nNodes*stride]
	from := sc.from[:nNodes*stride]
	sc.winLo = growInts(sc.winLo, nNodes)
	sc.winHi = growInts(sc.winHi, nNodes)
	winLo, winHi := sc.winLo, sc.winHi

	// Virtual start row S0[j] = j*gapScore, filled completely: it is O(m),
	// exact by construction, and source rows read it unguarded.
	sc.s0 = growInts(sc.s0, stride)
	s0 := sc.s0
	s0[0] = 0
	for j := 1; j <= m; j++ {
		s0[j] = j * gapScore
	}
	// S0's live range: j*gapScore >= 2j - slack  ⇔  j <= slack/6.
	s0Hi := slack / 6
	if s0Hi > m {
		s0Hi = m
	}

	for _, id := range order {
		n := &g.nodes[id]
		rowOff := id * stride
		row := score[rowOff : rowOff+stride]
		mrow := move[rowOff : rowOff+stride]
		frow := from[rowOff : rowOff+stride]

		// Sweep range from the predecessors' live windows: diagonal moves
		// reach one past a predecessor's last live cell.
		var lo, hiBase int
		if len(n.preds) == 0 {
			lo, hiBase = 0, s0Hi+1
		} else {
			lo, hiBase = stride, -1
			for _, p := range n.preds {
				if winLo[p] > winHi[p] {
					continue // predecessor row is dead
				}
				if winLo[p] < lo {
					lo = winLo[p]
				}
				if winHi[p] > hiBase {
					hiBase = winHi[p]
				}
			}
			if hiBase < 0 {
				// Every predecessor collapsed: this row is dead too. Mark
				// the window empty and floor the sink cell so the final
				// sink scan cannot read a stale score.
				winLo[id], winHi[id] = 1, 0
				row[m] = floorScore
				continue
			}
			hiBase++
		}
		if hiBase > m {
			hiBase = m
		}

		var wLo, wHi int
		switch {
		case len(n.preds) == 0:
			wLo, wHi = sweepRowS0(s, n.base, int32(id), row, s0, mrow, frow, lo, hiBase, slack)
		case len(n.preds) == 1:
			p := n.preds[0]
			prow := score[p*stride : p*stride+stride]
			wLo, wHi = sweepRowSingle(s, n.base, int32(id), row, prow, mrow, frow, winLo[p], winHi[p], hiBase, slack, int32(p))
		default:
			wLo, wHi = sweepRowMulti(s, n.base, int32(id), row, score, stride, n.preds, winLo, winHi, mrow, frow, lo, hiBase, slack)
		}
		computedHi := hiBase
		if wHi == hiBase && hiBase < m {
			// The rightmost swept cell is live: extend right while the
			// horizontal-only chain stays above the bound (out there every
			// predecessor cell is past its window, so horizontal is the only
			// candidate that can reach the bound).
			computedHi = extendRow(row, mrow, frow, int32(id), hiBase+1, m, slack)
			wHi = computedHi
		}
		if computedHi < m {
			row[m] = floorScore
		}
		winLo[id], winHi[id] = wLo, wHi
	}

	// Global alignment ends at a sink node with the full read consumed —
	// same scan and first-wins tie-break as the reference.
	bestEnd, bestScore := -1, floorScore
	for _, id := range order {
		if len(g.nodes[id].succs) == 0 && score[id*stride+m] > bestScore {
			bestScore = score[id*stride+m]
			bestEnd = id
		}
	}
	if bestScore < matchScore*m-slack {
		return nil, false
	}
	return g.traceback(bestEnd, m, stride, move, from), true
}

// sweepRowS0 computes cells [lo..hi] of a source node's row against the fully
// computed virtual start row. Returns the row's live window (empty as
// (lo, lo-1) when no cell reaches the bound).
//
//dnalint:hotpath
func sweepRowS0(s dna.Seq, base dna.Base, selfID int32, row, s0 []int, mrow []uint8, frow []int32, lo, hi, slack int) (int, int) {
	wLo, wHi := lo, lo-1
	for j := lo; j <= hi; j++ {
		best, bestMove, bestFrom := floorScore, uint8(moveNone), int32(-1)
		if j >= 1 {
			v := s0[j-1] + subScore
			if base == s[j-1] {
				v = s0[j-1] + matchScore
			}
			if v > best {
				best, bestMove, bestFrom = v, moveDiag, -1
			}
		}
		if v := s0[j] + gapScore; v > best {
			best, bestMove, bestFrom = v, moveVert, -1
		}
		if j-1 >= lo {
			if v := row[j-1] + gapScore; v > best {
				best, bestMove, bestFrom = v, moveHorz, selfID
			}
		}
		row[j] = best
		mrow[j] = bestMove
		frow[j] = bestFrom
		if best >= 2*j-slack {
			if wLo > wHi {
				wLo = j
			}
			wHi = j
		}
	}
	return wLo, wHi
}

// sweepRowSingle is the specialized sweep for the common single-predecessor
// (chain) node. The caller guarantees the sweep range is exactly the
// predecessor window's diagonal reach — it starts at plo and ends at
// hi == min(phi+1, m) — which splits the row into three statically known
// phases: the first cell (vertical candidate only), the interior
// [plo+1 .. min(hi, phi)] where all three candidates are in-window (a plain
// banded NW row sweep with no per-cell guards), and the diagonal edge cell
// phi+1 (no vertical). Candidate order within each phase matches the
// reference (diagonal, vertical, horizontal; strict >), so tie-breaking is
// identical; pruned candidates sit below the bound and cannot win or tie a
// live cell.
//
//dnalint:hotpath
func sweepRowSingle(s dna.Seq, base dna.Base, selfID int32, row, prow []int, mrow []uint8, frow []int32, plo, phi, hi, slack int, predID int32) (int, int) {
	row = row[: hi+1 : hi+1]
	mrow = mrow[: hi+1 : hi+1]
	frow = frow[: hi+1 : hi+1]
	wLo, wHi := plo, plo-1
	// First cell j == plo: diagonal would read prow[plo-1] and horizontal
	// row[plo-1], both pruned; only the vertical candidate remains.
	v0 := prow[plo] + gapScore
	row[plo] = v0
	mrow[plo] = moveVert
	frow[plo] = predID
	if v0 >= 2*plo-slack {
		wLo, wHi = plo, plo
	}
	interiorHi := hi
	if interiorHi > phi {
		interiorHi = phi
	}
	bnd := 2*plo - slack
	for j := plo + 1; j <= interiorHi; j++ {
		bnd += 2
		p := prow[j-1]
		d := p + subScore
		if base == s[j-1] {
			d = p + matchScore
		}
		best, bestMove := d, uint8(moveDiag)
		if v := prow[j] + gapScore; v > best {
			best, bestMove = v, moveVert
		}
		bestFrom := predID
		if v := row[j-1] + gapScore; v > best {
			best, bestMove, bestFrom = v, moveHorz, selfID
		}
		row[j] = best
		mrow[j] = bestMove
		frow[j] = bestFrom
		if best >= bnd {
			if wLo > wHi {
				wLo = j
			}
			wHi = j
		}
	}
	// Diagonal edge cell j == phi+1 (absent when hi was clamped to m): the
	// vertical candidate would read prow[phi+1], outside the window.
	if hi == phi+1 {
		p := prow[hi-1]
		d := p + subScore
		if base == s[hi-1] {
			d = p + matchScore
		}
		best, bestMove, bestFrom := d, uint8(moveDiag), predID
		if v := row[hi-1] + gapScore; v > best {
			best, bestMove, bestFrom = v, moveHorz, selfID
		}
		row[hi] = best
		mrow[hi] = bestMove
		frow[hi] = bestFrom
		if best >= 2*hi-slack {
			if wLo > wHi {
				wLo = hi
			}
			wHi = hi
		}
	}
	return wLo, wHi
}

// sweepRowMulti handles bubble-join nodes with several predecessors: the
// same straight-line candidate code as sweepRowSingle, iterated over the
// predecessors in declaration order so tie-breaking matches the reference.
//
//dnalint:hotpath
func sweepRowMulti(s dna.Seq, base dna.Base, selfID int32, row, score []int, stride int, preds []int, winLo, winHi []int, mrow []uint8, frow []int32, lo, hi, slack int) (int, int) {
	wLo, wHi := lo, lo-1
	for j := lo; j <= hi; j++ {
		best, bestMove, bestFrom := floorScore, uint8(moveNone), int32(-1)
		for _, p := range preds {
			plo, phi := winLo[p], winHi[p]
			prow := score[p*stride : p*stride+stride]
			if j >= 1 && j-1 >= plo && j-1 <= phi {
				v := prow[j-1] + subScore
				if base == s[j-1] {
					v = prow[j-1] + matchScore
				}
				if v > best {
					best, bestMove, bestFrom = v, moveDiag, int32(p)
				}
			}
			if j >= plo && j <= phi {
				if v := prow[j] + gapScore; v > best {
					best, bestMove, bestFrom = v, moveVert, int32(p)
				}
			}
		}
		if j-1 >= lo {
			if v := row[j-1] + gapScore; v > best {
				best, bestMove, bestFrom = v, moveHorz, selfID
			}
		}
		row[j] = best
		mrow[j] = bestMove
		frow[j] = bestFrom
		if best >= 2*j-slack {
			if wLo > wHi {
				wLo = j
			}
			wHi = j
		}
	}
	return wLo, wHi
}

// extendRow continues a row past the predecessors' diagonal reach: out there
// the only candidate above the bound is the horizontal chain, which is exact
// because it starts from a live (hence exact) cell. Extends while the chain
// stays above the bound and returns the last computed index.
//
//dnalint:hotpath
func extendRow(row []int, mrow []uint8, frow []int32, selfID int32, j, m, slack int) int {
	for ; j <= m; j++ {
		v := row[j-1] + gapScore
		if v < 2*j-slack {
			break
		}
		row[j] = v
		mrow[j] = moveHorz
		frow[j] = selfID
	}
	return j - 1
}
