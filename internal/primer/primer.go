// Package primer designs and matches the PCR primer pairs that give DNA
// storage its random-access capability (§II-D–F of the paper). A pair of
// 20-nucleotide primers flanks every molecule of a file; the pair is the
// file's key in the underlying key-value store. Primers must be mutually
// distant in Hamming distance so PCR amplifies only the addressed file, and
// chemically well-behaved (balanced GC content, no long homopolymers).
//
// The package also provides the §VIII wetlab-data operations: detecting the
// orientation of a sequenced read by matching primers (reads come off the
// sequencer in both 5'→3' and 3'→5' directions) and trimming primers before
// clustering.
package primer

import (
	"errors"
	"fmt"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

// Pair is a file-addressing primer pair. A stored molecule reads
// 5'-[Forward][payload][Reverse]-3'.
type Pair struct {
	Forward dna.Seq
	Reverse dna.Seq
}

// DesignOptions constrains primer generation.
type DesignOptions struct {
	// Length of each primer in bases. Default 20 (the standard PCR length).
	Length int
	// MinDistance is the minimum pairwise Hamming distance between any two
	// primers in the designed set (including forward vs reverse of the same
	// pair and all reverse complements). Default Length/3.
	MinDistance int
	// GCMin and GCMax bound the GC content. Defaults 0.40 and 0.60.
	GCMin, GCMax float64
	// MaxHomopolymer caps the longest single-base run. Default 3.
	MaxHomopolymer int
	// MaxAttempts bounds the rejection-sampling loop per primer. Default 20000.
	MaxAttempts int
}

func (o DesignOptions) withDefaults() DesignOptions {
	if o.Length == 0 {
		o.Length = 20
	}
	if o.MinDistance == 0 {
		o.MinDistance = o.Length / 3
	}
	if o.GCMin == 0 && o.GCMax == 0 {
		o.GCMin, o.GCMax = 0.40, 0.60
	}
	if o.MaxHomopolymer == 0 {
		o.MaxHomopolymer = 3
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 20000
	}
	return o
}

// ErrDesignFailed is returned when no primer satisfying the constraints was
// found within MaxAttempts; relax the constraints or request fewer pairs.
var ErrDesignFailed = errors.New("primer: design failed to satisfy constraints")

// chemOK checks the single-primer chemical constraints.
func chemOK(p dna.Seq, o DesignOptions) bool {
	gc := p.GCContent()
	return gc >= o.GCMin && gc <= o.GCMax && p.MaxHomopolymer() <= o.MaxHomopolymer
}

// minPairwiseDist returns the minimum Hamming distance from candidate to any
// sequence in the set (all sequences must share the candidate's length).
func minPairwiseDist(candidate dna.Seq, set []dna.Seq) int {
	best := len(candidate) + 1
	for _, s := range set {
		if d := dna.Hamming(candidate, s); d < best {
			best = d
		}
	}
	return best
}

// Design generates n primer pairs satisfying opts, deterministically from
// seed. Every primer in the returned set (and its reverse complement) is at
// Hamming distance >= MinDistance from every other, which is what lets PCR
// address one file without amplifying the others.
func Design(seed uint64, n int, opts DesignOptions) ([]Pair, error) {
	o := opts.withDefaults()
	rng := xrand.New(seed)
	var all []dna.Seq // primers and their reverse complements
	next := func() (dna.Seq, error) {
		for attempt := 0; attempt < o.MaxAttempts; attempt++ {
			cand := dna.Random(rng, o.Length)
			if !chemOK(cand, o) {
				continue
			}
			rc := cand.ReverseComplement()
			if minPairwiseDist(cand, all) < o.MinDistance ||
				minPairwiseDist(rc, all) < o.MinDistance ||
				dna.Hamming(cand, rc) < o.MinDistance {
				continue
			}
			all = append(all, cand, rc)
			return cand, nil
		}
		return nil, fmt.Errorf("%w: after %d attempts (have %d primers)", ErrDesignFailed, o.MaxAttempts, len(all))
	}
	pairs := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		fwd, err := next()
		if err != nil {
			return nil, err
		}
		rev, err := next()
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, Pair{Forward: fwd, Reverse: rev})
	}
	return pairs, nil
}

// Attach returns 5'-[Forward][inner][Reverse]-3'.
func (p Pair) Attach(inner dna.Seq) dna.Seq {
	out := make(dna.Seq, 0, len(p.Forward)+len(inner)+len(p.Reverse))
	out = append(out, p.Forward...)
	out = append(out, inner...)
	out = append(out, p.Reverse...)
	return out
}

// Orientation of a sequenced read relative to the synthesized strand.
type Orientation int

// Possible read orientations.
const (
	Unknown Orientation = iota
	ForwardStrand
	ReverseStrand // the read is the reverse complement of the molecule
)

// scoreEnds returns the summed edit distance of the read's two ends against
// the pair's primers, using a small window slack to tolerate indels.
func scoreEnds(read dna.Seq, p Pair, tol int) int {
	fl, rl := len(p.Forward), len(p.Reverse)
	if len(read) < fl+rl {
		return 1 << 20
	}
	head := read[:min(len(read), fl+tol)]
	tail := read[max(0, len(read)-rl-tol):]
	return prefixDist(head, p.Forward, tol) + prefixDist(tail.Reverse(), p.Reverse.Reverse(), tol)
}

// prefixDist returns the best edit distance of primer against any prefix of
// window no shorter than len(primer)-tol.
func prefixDist(window, primer dna.Seq, tol int) int {
	best := len(primer)
	lo := len(primer) - tol
	if lo < 0 {
		lo = 0
	}
	hi := len(primer) + tol
	if hi > len(window) {
		hi = len(window)
	}
	var es edit.Scratch
	for cut := lo; cut <= hi; cut++ {
		if d, ok := es.Within(window[:cut], primer, tol); ok && d < best {
			best = d
		}
	}
	return best
}

// Orient determines whether read matches pair in forward or reverse
// orientation, allowing up to tol edits per primer. It returns the read
// normalized to the forward (5'→3') orientation and the orientation found.
// When neither orientation fits, it returns the input unchanged and Unknown.
func Orient(read dna.Seq, p Pair, tol int) (dna.Seq, Orientation) {
	fwd := scoreEnds(read, p, tol)
	rc := read.ReverseComplement()
	rev := scoreEnds(rc, p, tol)
	switch {
	case fwd <= 2*tol && fwd <= rev:
		return read, ForwardStrand
	case rev <= 2*tol:
		return rc, ReverseStrand
	default:
		return read, Unknown
	}
}

// Trim removes the pair's primers from a forward-oriented read, tolerating
// up to tol edits and ±tol bases of drift at each boundary, and returns the
// inner payload region. ok is false when either primer cannot be located.
func Trim(read dna.Seq, p Pair, tol int) (dna.Seq, bool) {
	fl, rl := len(p.Forward), len(p.Reverse)
	if len(read) < fl+rl {
		return nil, false
	}
	var es edit.Scratch
	// Find the forward primer's end: the cut in [fl-tol, fl+tol] whose
	// prefix best matches the primer.
	bestCut, bestD := -1, tol+1
	for cut := fl - tol; cut <= fl+tol && cut <= len(read); cut++ {
		if cut < 0 {
			continue
		}
		if d, ok := es.Within(read[:cut], p.Forward, tol); ok && d < bestD {
			bestD, bestCut = d, cut
		}
	}
	if bestCut < 0 {
		return nil, false
	}
	start := bestCut
	// Find the reverse primer's start from the other end symmetrically.
	bestCut, bestD = -1, tol+1
	for cut := rl - tol; cut <= rl+tol && cut <= len(read); cut++ {
		if cut < 0 {
			continue
		}
		if d, ok := es.Within(read[len(read)-cut:], p.Reverse, tol); ok && d < bestD {
			bestD, bestCut = d, cut
		}
	}
	if bestCut < 0 {
		return nil, false
	}
	end := len(read) - bestCut
	if end < start {
		return nil, false
	}
	return read[start:end].Clone(), true
}

// Identify scans a library of pairs and returns the index of the pair that
// best matches the read (in either orientation) within tol edits per primer,
// together with the forward-oriented read. It returns -1 when nothing
// matches, e.g. for contamination reads from another pool.
func Identify(read dna.Seq, library []Pair, tol int) (int, dna.Seq) {
	bestIdx, bestScore := -1, 1<<20
	var bestSeq dna.Seq
	rc := read.ReverseComplement()
	for i, p := range library {
		if s := scoreEnds(read, p, tol); s < bestScore && s <= 2*tol {
			bestIdx, bestScore, bestSeq = i, s, read
		}
		if s := scoreEnds(rc, p, tol); s < bestScore && s <= 2*tol {
			bestIdx, bestScore, bestSeq = i, s, rc
		}
	}
	return bestIdx, bestSeq
}
