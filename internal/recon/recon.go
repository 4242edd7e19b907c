// Package recon implements the trace-reconstruction module of the pipeline
// (§VII): recreating the originally encoded strand from a cluster of noisy
// reads. Three algorithms are provided, as in the paper:
//
//   - BMA: the BMA-lookahead algorithm of Organick et al. — an incremental
//     left-to-right majority vote in which disagreeing reads are realigned
//     by guessing the most likely edit from a small lookahead window. Wrong
//     guesses propagate, so later indexes reconstruct less reliably.
//   - DoubleSidedBMA: runs BMA left-to-right for the left half and
//     right-to-left for the right half, concentrating the propagated errors
//     in the middle indexes (Lin et al.; §VII-B).
//   - NW: the paper's own algorithm (§VII-C) — a multiple sequence
//     alignment of the cluster via partial-order alignment
//     (internal/align), followed by a per-column majority vote, trimming
//     indel-heavy columns when the alignment exceeds the expected length.
//
// A fourth, Adaptive, is a per-cluster dispatcher in the style of
// edit.Scratch's kernel dispatch: it runs the cheap BMA sweep first and
// accepts its consensus when a quick agreement check passes (full target
// length and every read within a small edit radius of the consensus,
// verified with the thresholded bit-parallel kernel); only disagreeing
// clusters pay for the O(nodes·m) POA alignment. Its output is always
// bit-identical to whichever of BMA or NW it selected — pinned by
// FuzzReconDispatch.
//
// All algorithms reconstruct clusters independently, so
// ReconstructAllContext fans out over a worker pool; each worker owns one
// Scratch holding every buffer the algorithms need (POA graph, edit-distance
// kernels, BMA lookahead and reversal buffers), so steady-state
// reconstruction performs no per-cluster table allocations.
package recon

import (
	"context"
	"runtime"

	"dnastore/internal/align"
	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/exec"
)

// Algorithm reconstructs a consensus strand from a cluster of noisy reads.
// targetLen is the nominal encoded strand length; implementations aim to
// return exactly that many bases but may return fewer when a cluster is
// exhausted early. Degenerate clusters — no reads, only empty reads, or a
// non-positive targetLen — deterministically yield nil (an erasure for the
// outer code), never a panic.
type Algorithm interface {
	Name() string
	Reconstruct(reads []dna.Seq, targetLen int) dna.Seq
}

// Scratch owns every reusable buffer the reconstruction algorithms need: the
// POA graph with its DP tables, the edit-distance kernels' rows and bit
// vectors, the BMA pointer/lookahead buffers and the DoubleSidedBMA
// read-reversal slots. The zero value is ready to use; buffers grow on
// demand and are never shrunk. A Scratch must not be shared between
// goroutines: ReconstructAllContext holds one per worker, the same ownership
// rule scratchown enforces for align.Graph and edit.Scratch.
//
// Every buffer is fully rewritten before it is read on each call (pointers
// zeroed, lookahead windows filled per position, reversal slots rebuilt per
// cluster, the graph Reset on entry), so a panic salvaged mid-cluster cannot
// leak one cluster's state into the next.
//
//dnalint:scratch
type Scratch struct {
	graph    *align.Graph
	es       edit.Scratch
	ptr      []int
	future   []dna.Base
	insBuf   dna.Seq
	reversed []dna.Seq
}

// poaGraph returns the scratch's POA graph, allocating it on first use so
// BMA-only workers never pay for one.
func (s *Scratch) poaGraph() *align.Graph {
	if s.graph == nil {
		s.graph = align.NewGraph()
	}
	return s.graph
}

// ScratchReconstructor is implemented by algorithms that can thread a
// per-worker Scratch through their reconstruction, avoiding per-cluster
// allocations. ReconstructScratch must return exactly what Reconstruct
// returns for the same inputs — the scratch changes cost, never output.
type ScratchReconstructor interface {
	Algorithm
	ReconstructScratch(sc *Scratch, reads []dna.Seq, targetLen int) dna.Seq
}

// degenerate reports whether a cluster has nothing reconstructable: no
// reads, only empty reads, or a non-positive target length. All algorithms
// return nil for such clusters instead of leaning on the worker pool's panic
// isolation.
func degenerate(reads []dna.Seq, targetLen int) bool {
	if targetLen <= 0 || len(reads) == 0 {
		return true
	}
	for _, r := range reads {
		if len(r) > 0 {
			return false
		}
	}
	return true
}

// growInts returns buf resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// lookahead is the BMA window w (§VII-A): the number of upcoming consensus
// bases a disagreement is scored against to classify it as substitution,
// insertion or deletion.
const lookahead = 3

// BMA is the baseline BMA-lookahead algorithm (§VII-A).
type BMA struct{}

// Name implements Algorithm.
func (BMA) Name() string { return "bma" }

// Reconstruct implements Algorithm.
func (b BMA) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	var sc Scratch
	return b.ReconstructScratch(&sc, reads, targetLen)
}

// ReconstructScratch implements ScratchReconstructor.
func (BMA) ReconstructScratch(sc *Scratch, reads []dna.Seq, targetLen int) dna.Seq {
	if degenerate(reads, targetLen) {
		return nil
	}
	return bmaForward(sc, make(dna.Seq, 0, targetLen), reads, targetLen, lookahead)
}

// bmaForward appends up to n bases of the left-to-right BMA-lookahead
// consensus to out and returns the extended slice. Callers give out the
// capacity for all n bases, so the consensus is the caller's one allocation;
// the pointer, predicted-consensus and insertion-hypothesis buffers come
// from the scratch.
//
// Where every live read shows the voted base, no read is realigned and the
// lookahead prediction would go unread, so the loop takes the whole
// unanimous run at once (unanimousRun) instead of one position per round.
// The output is bit-identical to the one-position loop, which the tests keep
// as bmaForwardRef and pin this one to.
//
//dnalint:hotpath
func bmaForward(sc *Scratch, out dna.Seq, reads []dna.Seq, n int, w int) dna.Seq {
	sc.ptr = growInts(sc.ptr, len(reads))
	ptr := sc.ptr
	for i := range ptr {
		ptr[i] = 0
	}
	if cap(sc.future) < w {
		sc.future = make([]dna.Base, w) //dnalint:allow hotpathalloc -- amortized scratch growth, reused across every cluster this worker reconstructs
		sc.insBuf = make(dna.Seq, w)    //dnalint:allow hotpathalloc -- amortized scratch growth, reused across every cluster this worker reconstructs
	}
	future := sc.future[:w]
	insBuf := sc.insBuf[:w]
	end := len(out) + n
	for len(out) < end {
		// Majority vote at the current pointers.
		var votes [dna.NumBases]int
		active := 0
		for r, p := range ptr {
			if p < len(reads[r]) {
				votes[reads[r][p]]++
				active++
			}
		}
		if active == 0 {
			break
		}
		best := dna.A
		for bb := dna.Base(1); bb < dna.NumBases; bb++ {
			if votes[bb] > votes[best] {
				best = bb
			}
		}
		if votes[best] == active {
			// Unanimous: every live read advances by one on each position
			// of the run, and the live set cannot change inside it.
			run := unanimousRun(reads, ptr, end-len(out))
			out = append(out, run...) //dnalint:allow hotpathalloc -- appends into the caller's pre-sized consensus buffer
			for r, p := range ptr {
				if p < len(reads[r]) {
					ptr[r] = p + len(run)
				}
			}
			continue
		}
		// Predicted upcoming consensus: per-offset majority over the reads
		// that agree with the vote (their next bases), falling back to all
		// active reads when nobody agrees.
		for k := 0; k < w; k++ {
			var fv [dna.NumBases]int
			any := false
			for r, p := range ptr {
				if p < len(reads[r]) && reads[r][p] == best && p+1+k < len(reads[r]) {
					fv[reads[r][p+1+k]]++
					any = true
				}
			}
			if !any {
				for r, p := range ptr {
					if p+1+k < len(reads[r]) {
						fv[reads[r][p+1+k]]++
					}
				}
			}
			f := dna.A
			for bb := dna.Base(1); bb < dna.NumBases; bb++ {
				if fv[bb] > fv[f] {
					f = bb
				}
			}
			future[k] = f
		}
		out = append(out, best) //dnalint:allow hotpathalloc -- appends into the caller's pre-sized consensus buffer
		// Advance pointers, realigning disagreeing reads by the most likely
		// edit (§VII-A).
		for r := range ptr {
			p := ptr[r]
			read := reads[r]
			if p >= len(read) {
				continue
			}
			if read[p] == best {
				ptr[r] = p + 1
				continue
			}
			// Hypothesis scores over the lookahead window. The upcoming
			// consensus is predicted as [best, future...]; each hypothesis
			// aligns the read's remaining bases differently against it.
			subScore := matchScore(read, p+1, future)
			delScore := matchScore(read, p, future)
			insBuf[0] = best
			copy(insBuf[1:], future[:w-1])
			insScore := matchScore(read, p+1, insBuf)
			switch {
			case subScore >= delScore && subScore >= insScore:
				ptr[r] = p + 1 // substitution: consume the wrong base
			case delScore >= insScore:
				// deletion in the read: the consensus base is missing, the
				// pointer stays for the next round
			default:
				ptr[r] = p + 2 // insertion: skip the spurious base and best
			}
		}
	}
	return out
}

// unanimousRun returns the run of consensus bases, starting at the
// pointers, on which every live read (ptr[r] < len(reads[r])) shows the same
// base, as a subslice of the first live read. The run is capped at limit and
// at the shortest live remainder, so no read leaves the live set inside it.
// The caller has already seen the live reads agree at the pointers, so the
// run is at least one base long.
//
//dnalint:hotpath
func unanimousRun(reads []dna.Seq, ptr []int, limit int) dna.Seq {
	from := -1
	for r, p := range ptr {
		if rem := len(reads[r]) - p; rem > 0 {
			if from < 0 {
				from = r
			}
			limit = min(limit, rem)
		}
	}
	run := reads[from][ptr[from]:][:limit]
	for r := from + 1; r < len(ptr); r++ {
		if p := ptr[r]; p < len(reads[r]) {
			other := reads[r][p:][:len(run)]
			n := 0
			for n < len(run) && run[n] == other[n] {
				n++
			}
			run = run[:n]
		}
	}
	return run
}

// matchScore counts matches of read[from:] against the expected bases,
// normalized to tolerate running off the end of the read (missing positions
// score as half a mismatch).
//
//dnalint:hotpath
func matchScore(read dna.Seq, from int, expect []dna.Base) int {
	score := 0
	for k, e := range expect {
		i := from + k
		if i >= len(read) {
			score-- // slight penalty so shorter tails lose ties
			continue
		}
		if read[i] == e {
			score += 2
		} else {
			score -= 2
		}
	}
	return score
}

// reverseInto writes src reversed into dst; the slices must have equal
// length and not alias.
//
//dnalint:hotpath
func reverseInto(dst, src dna.Seq) {
	n := len(src)
	for i := 0; i < n; i++ {
		dst[i] = src[n-1-i]
	}
}

// reverseInPlace reverses s.
//
//dnalint:hotpath
func reverseInPlace(s dna.Seq) {
	for l, r := 0, len(s)-1; l < r; l, r = l+1, r-1 {
		s[l], s[r] = s[r], s[l]
	}
}

// DoubleSidedBMA reconstructs the left half left-to-right and the right half
// right-to-left, joining in the middle (§VII-B).
type DoubleSidedBMA struct{}

// Name implements Algorithm.
func (DoubleSidedBMA) Name() string { return "double-sided-bma" }

// Reconstruct implements Algorithm.
func (d DoubleSidedBMA) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	var sc Scratch
	return d.ReconstructScratch(&sc, reads, targetLen)
}

// ReconstructScratch implements ScratchReconstructor.
func (DoubleSidedBMA) ReconstructScratch(sc *Scratch, reads []dna.Seq, targetLen int) dna.Seq {
	if degenerate(reads, targetLen) {
		return nil
	}
	return doubleSided(sc, reads, targetLen, lookahead)
}

// doubleSided is the DoubleSidedBMA consensus at window w for a
// non-degenerate cluster. The per-read reversal buffers live in per-worker
// scratch slots (sc.reversed), and both halves are appended into one
// consensus buffer, so with a warm scratch the consensus is the call's only
// allocation.
func doubleSided(sc *Scratch, reads []dna.Seq, targetLen, w int) dna.Seq {
	leftLen := (targetLen + 1) / 2
	out := bmaForward(sc, make(dna.Seq, 0, targetLen), reads, leftLen, w)
	if cap(sc.reversed) < len(reads) {
		grown := make([]dna.Seq, len(reads))
		copy(grown, sc.reversed) // keep the capacity of existing slots
		sc.reversed = grown
	}
	rev := sc.reversed[:len(reads)]
	for i, r := range reads {
		buf := rev[i]
		if cap(buf) < len(r) {
			buf = make(dna.Seq, len(r))
		}
		buf = buf[:len(r)]
		reverseInto(buf, r)
		rev[i] = buf
	}
	// The left half may stop short when the cluster runs out; the right
	// half follows directly after whatever it produced.
	mid := len(out)
	out = bmaForward(sc, out, rev, targetLen-leftLen, w)
	reverseInPlace(out[mid:])
	return out
}

// NW is the paper's Needleman–Wunsch/POA reconstruction (§VII-C): multiple
// sequence alignment of the cluster, per-column majority, indel-heavy
// columns trimmed to the target length.
type NW struct{}

// Name implements Algorithm.
func (NW) Name() string { return "needleman-wunsch" }

// Reconstruct implements Algorithm.
func (n NW) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	var sc Scratch
	return n.ReconstructScratch(&sc, reads, targetLen)
}

// ReconstructScratch implements ScratchReconstructor: consensus goes through
// the scratch's per-worker POA graph, whose DP tables and node storage are
// reused across every cluster the worker reconstructs.
func (NW) ReconstructScratch(sc *Scratch, reads []dna.Seq, targetLen int) dna.Seq {
	if degenerate(reads, targetLen) {
		return nil
	}
	return sc.poaGraph().ConsensusOf(reads, targetLen)
}

// Adaptive dispatches per cluster between the BMA sweep and the NW/POA
// consensus, mirroring how edit.Scratch dispatches between its DP and
// bit-parallel kernels: run the cheap kernel first, verify, and only pay for
// the expensive one when verification fails. The BMA consensus is accepted
// when it reaches the full target length and every non-empty read lies
// within max(3, targetLen/12) edits of it (checked with the thresholded
// bit-parallel Within kernel, which bails early on disagreeing reads). The
// radius sits comfortably above the edits a read carries at the simulator's
// operating points when the consensus is right, and far below the distance
// to a consensus that went off the rails. Clusters that pass never pay the
// O(nodes·m) graph alignment; how many pass depends on the noise. In one
// batch run at 492 nt, 0.1 % IID error and coverage 3, 12 of 11 664
// clusters went to POA (0.1 %). At the Table III point (128 nt, 6 % IID
// error, Poisson coverage 10) 7 294 of 10 047 did (73 %): the radius there,
// max(3, 128/12) = 10 edits, is close to the 7.7 edits a read carries on
// average.
//
// The output is bit-identical to whichever algorithm the dispatch selected:
// accepted clusters return exactly BMA's consensus, rejected ones exactly
// NW's (pinned by FuzzReconDispatch). The agreement check can only *reject*
// BMA output, so Adaptive is never less accurate than BMA; on clusters where
// BMA and NW genuinely differ, rejection hands the cluster to the stronger
// NW reconstruction.
type Adaptive struct{}

// Name implements Algorithm.
func (Adaptive) Name() string { return "adaptive" }

// Reconstruct implements Algorithm.
func (a Adaptive) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	var sc Scratch
	return a.ReconstructScratch(&sc, reads, targetLen)
}

// ReconstructScratch implements ScratchReconstructor.
func (a Adaptive) ReconstructScratch(sc *Scratch, reads []dna.Seq, targetLen int) dna.Seq {
	out, _ := a.reconstruct(sc, reads, targetLen)
	return out
}

// reconstruct returns the consensus and whether the POA path produced it
// (false: the BMA consensus passed the agreement check, or the cluster was
// degenerate). The second return exists for the differential fuzzer, which
// must compare against the reference implementation of the selected path.
func (Adaptive) reconstruct(sc *Scratch, reads []dna.Seq, targetLen int) (dna.Seq, bool) {
	if degenerate(reads, targetLen) {
		return nil, false
	}
	cons := bmaForward(sc, make(dna.Seq, 0, targetLen), reads, targetLen, lookahead)
	if agrees(sc, reads, cons, targetLen) {
		return cons, false
	}
	return NW{}.ReconstructScratch(sc, reads, targetLen), true
}

// agrees is the quick agreement check: the BMA consensus must reach the full
// target length (BMA exhausting a cluster early is itself a disagreement
// signal) and every non-empty read must be within the agreement radius.
// Empty reads carry no signal and are ignored, matching how the vote treats
// them.
func agrees(sc *Scratch, reads []dna.Seq, cons dna.Seq, targetLen int) bool {
	if len(cons) != targetLen {
		return false
	}
	k := max(3, targetLen/12)
	for _, r := range reads {
		if len(r) == 0 {
			continue
		}
		if _, ok := sc.es.Within(r, cons, k); !ok {
			return false
		}
	}
	return true
}

// ReconstructAllContext reconstructs every cluster in parallel and returns
// one consensus strand per cluster, in cluster order. Empty clusters yield
// nil. workers <= 0 uses GOMAXPROCS; zero clusters and workers exceeding the
// cluster count are both fine (the pool is clamped to the work available).
// Cancellation is cooperative: workers check ctx between clusters and the
// call returns the context's error when it is cancelled. An Algorithm that
// panics on one cluster loses only that cluster's consensus (nil, which the
// decoder treats as an erasure); the panic never escapes the worker pool.
func ReconstructAllContext(ctx context.Context, clusters [][]dna.Seq, targetLen int, algo Algorithm, workers int) ([]dna.Seq, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]dna.Seq, len(clusters))
	if len(clusters) == 0 {
		return out, context.Cause(ctx)
	}
	if workers > len(clusters) {
		workers = len(clusters)
	}
	// Each worker owns one Scratch slot: algorithms that implement
	// ScratchReconstructor reuse its POA graph, edit kernels and BMA
	// buffers across every cluster that worker reconstructs, instead of
	// allocating fresh tables per cluster. exec.ParallelForW guarantees
	// calls for one worker ID never overlap, so slot w is never shared —
	// see DESIGN.md "Performance". Per-item and worker-level panic
	// containment live in the executor: a panicking cluster stays nil,
	// which the decoder treats as an erasure.
	scratch := make([]Scratch, workers)
	exec.ParallelForW(ctx, workers, len(clusters), func(w, i int) {
		if len(clusters[i]) > 0 {
			out[i] = reconstructOne(algo, &scratch[w], clusters[i], targetLen)
		}
	})
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// reconstructOne guards a single consensus computation: a panicking
// Algorithm yields a nil consensus (an erasure for the outer code, §IV)
// instead of crashing the process. Algorithms implementing
// ScratchReconstructor get the worker's Scratch; a panic mid-cluster is safe
// because every scratch buffer is fully rewritten before it is read on the
// next call (and the POA graph begins with a Reset that discards any
// half-built state).
func reconstructOne(algo Algorithm, sc *Scratch, cluster []dna.Seq, targetLen int) (out dna.Seq) {
	defer func() {
		if recover() != nil {
			out = nil
		}
	}()
	if sr, ok := algo.(ScratchReconstructor); ok {
		return sr.ReconstructScratch(sc, cluster, targetLen)
	}
	return algo.Reconstruct(cluster, targetLen)
}
