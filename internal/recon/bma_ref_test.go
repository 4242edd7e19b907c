package recon

import (
	"fmt"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// bmaForwardRef is bmaForward as it was before the unanimous-run fast path:
// one consensus position per round, with the lookahead prediction computed
// on every round. The loop is kept verbatim as the oracle the fast path is
// pinned to.
func bmaForwardRef(sc *Scratch, reads []dna.Seq, targetLen int, w int) dna.Seq {
	sc.ptr = growInts(sc.ptr, len(reads))
	ptr := sc.ptr
	for i := range ptr {
		ptr[i] = 0
	}
	if cap(sc.future) < w {
		sc.future = make([]dna.Base, w)
		sc.insBuf = make(dna.Seq, w)
	}
	future := sc.future[:w]
	insBuf := sc.insBuf[:w]
	out := make(dna.Seq, 0, targetLen)
	for len(out) < targetLen {
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
		out = append(out, best)
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

// dbmaRef is DoubleSidedBMA built from bmaForwardRef the way it was before
// the fast path: separate left and right consensus buffers joined into a
// third, and reads reversed one base at a time.
func dbmaRef(reads []dna.Seq, targetLen int, w int) dna.Seq {
	if degenerate(reads, targetLen) {
		return nil
	}
	var sc Scratch
	leftLen := (targetLen + 1) / 2
	left := bmaForwardRef(&sc, reads, leftLen, w)
	rev := make([]dna.Seq, len(reads))
	for i, r := range reads {
		rev[i] = make(dna.Seq, len(r))
		for j := range r {
			rev[i][j] = r[len(r)-1-j]
		}
	}
	right := bmaForwardRef(&sc, rev, targetLen-leftLen, w)
	out := make(dna.Seq, 0, len(left)+len(right))
	out = append(out, left...)
	for j := len(right) - 1; j >= 0; j-- {
		out = append(out, right[j])
	}
	return out
}

// referencePoints are the operating points the toolkit ships: the streaming
// and archive workloads (492 nt, 3 reads, 0.1 % IID), the bench recon rows
// (110 nt, 8 reads, 3 %) and the paper's Table III point (128 nt, 10 reads,
// 6 %).
var referencePoints = []struct {
	length, reads int
	rate          float64
}{
	{492, 3, 0.001},
	{110, 8, 0.03},
	{128, 10, 0.06},
}

// variantClusters derives the shapes a real cluster can take from one
// simulated cluster: as simulated, with its last read truncated, and with an
// empty read among the others.
func variantClusters(rng *xrand.RNG, cluster []dna.Seq) map[string][]dna.Seq {
	truncated := append([]dna.Seq(nil), cluster...)
	last := truncated[len(truncated)-1]
	truncated[len(truncated)-1] = last[:rng.Intn(len(last)+1)]
	withEmpty := append([]dna.Seq{{}}, cluster...)
	return map[string][]dna.Seq{"simulated": cluster, "truncated": truncated, "empty-read": withEmpty}
}

// TestBMAFastPathMatchesReference pins bmaForward, DoubleSidedBMA, BMA and
// Adaptive's BMA pre-pass to the one-position reference loop on simulated
// clusters at every shipped operating point, across cluster sizes 1–12,
// lookahead windows 1–5 and target lengths within two of the strand length.
// Adaptive is checked at its default window and the strand length only,
// because a rejected pre-pass costs a POA alignment.
func TestBMAFastPathMatchesReference(t *testing.T) {
	for _, pt := range referencePoints {
		t.Run(fmt.Sprintf("%dnt-%dreads-%g", pt.length, pt.reads, pt.rate), func(t *testing.T) {
			rng := xrand.New(uint64(pt.length*1000 + pt.reads))
			ch := sim.CalibratedIID(pt.rate)
			var sc Scratch
			for size := 1; size <= 12; size++ {
				ref := dna.Random(rng, pt.length)
				cluster := make([]dna.Seq, size)
				for i := range cluster {
					cluster[i] = ch.Transmit(rng, ref)
				}
				for shape, reads := range variantClusters(rng, cluster) {
					for w := 1; w <= 5; w++ {
						for targetLen := pt.length - 2; targetLen <= pt.length+2; targetLen++ {
							checkAgainstReference(t, &sc, reads, targetLen, w, w == 3 && targetLen == pt.length,
								fmt.Sprintf("size=%d shape=%s w=%d targetLen=%d", size, shape, w, targetLen))
						}
					}
				}
			}
		})
	}
}

// checkAgainstReference compares every BMA-based entry point on one cluster
// (Adaptive only when asked) with the reference, reusing sc across calls as
// a worker would.
func checkAgainstReference(t *testing.T, sc *Scratch, reads []dna.Seq, targetLen, w int, adaptive bool, label string) {
	t.Helper()
	want := bmaForwardRef(new(Scratch), reads, targetLen, w)
	if got := bmaForward(sc, make(dna.Seq, 0, targetLen), reads, targetLen, w); !got.Equal(want) {
		t.Fatalf("%s: bmaForward diverges from the reference\n got=%v\nwant=%v", label, got, want)
	}
	if got := (BMA{Lookahead: w}).ReconstructScratch(sc, reads, targetLen); !got.Equal(want) {
		t.Fatalf("%s: BMA diverges from the reference\n got=%v\nwant=%v", label, got, want)
	}
	if adaptive {
		if got, usedPOA := (Adaptive{Lookahead: w}).reconstruct(sc, reads, targetLen); !usedPOA && !got.Equal(want) {
			t.Fatalf("%s: Adaptive's accepted BMA pre-pass diverges from the reference\n got=%v\nwant=%v", label, got, want)
		}
	}
	wantD := dbmaRef(reads, targetLen, w)
	if got := (DoubleSidedBMA{Lookahead: w}).ReconstructScratch(sc, reads, targetLen); !got.Equal(wantD) {
		t.Fatalf("%s: DoubleSidedBMA diverges from the reference\n got=%v\nwant=%v", label, got, wantD)
	}
}

// TestDBMAWarmScratchAllocatesOnlyConsensus guards the DoubleSidedBMA
// allocation budget: once the worker's scratch has grown, a call allocates
// its consensus and nothing else. BMA is held to the same budget.
func TestDBMAWarmScratchAllocatesOnlyConsensus(t *testing.T) {
	_, clusters := makeClusters(23, 4, 492, 3, 0.001)
	var sc Scratch
	for _, cl := range clusters {
		DoubleSidedBMA{}.ReconstructScratch(&sc, cl, 492)
	}
	for _, algo := range []ScratchReconstructor{DoubleSidedBMA{}, BMA{}} {
		for i, cl := range clusters {
			if allocs := testing.AllocsPerRun(50, func() { algo.ReconstructScratch(&sc, cl, 492) }); allocs != 1 {
				t.Errorf("%s, cluster %d: %v allocations per call with a warm scratch, want 1 (the consensus)", algo.Name(), i, allocs)
			}
		}
	}
}
