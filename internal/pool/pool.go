// Package pool models the high-level architecture of §II-F of the paper: a
// DNA pool is a key-value store in which a pair of PCR primers is the key
// and the payloads of all molecules tagged with that pair are the value.
// Multiple files share one physical pool (test tube); random access to one
// file is performed by PCR amplification, which exponentially replicates
// the molecules whose flanks match the primer pair.
//
// The PCR model captures the two behaviours that matter for storage
// architecture studies: selective amplification (only matching molecules
// multiply) and imperfect specificity (molecules whose primers are close in
// Hamming distance to the target pair amplify with reduced efficiency,
// producing contamination reads that the decoding path must reject).
package pool

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dnastore/internal/dna"
	"dnastore/internal/primer"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// File is one stored object: its addressing primers and its molecules
// (strands including the primer flanks).
type File struct {
	Name    string
	Primers primer.Pair
	Strands []dna.Seq
}

// Pool is a simulated test tube holding many files' molecules.
// The zero value is an empty pool ready for Store calls.
type Pool struct {
	files []File
}

// ErrDuplicateName is returned when storing a file under an existing name.
var ErrDuplicateName = errors.New("pool: duplicate file name")

// ErrPrimerClash is returned when a file's primers are too close to an
// already-stored file's primers for PCR to separate them.
var ErrPrimerClash = errors.New("pool: primer pair too close to an existing file's")

// ErrNotFound is returned when accessing an unknown file.
var ErrNotFound = errors.New("pool: no such file")

// MinPrimerDistance is the minimum Hamming distance required between the
// primers of distinct files (§II-F: primers must be designed to be
// sufficiently different from one another).
const MinPrimerDistance = 6

// Store adds a file's molecules to the pool. The strands must already carry
// the pair's primers (codec.EncodeFile with Params.Primers does this).
func (p *Pool) Store(name string, pair primer.Pair, strands []dna.Seq) error {
	for _, f := range p.files {
		if f.Name == name {
			return fmt.Errorf("%w: %q", ErrDuplicateName, name)
		}
		for _, existing := range []dna.Seq{f.Primers.Forward, f.Primers.Reverse} {
			for _, candidate := range []dna.Seq{pair.Forward, pair.Reverse} {
				if len(existing) == len(candidate) && dna.Hamming(existing, candidate) < MinPrimerDistance {
					return fmt.Errorf("%w: %q vs %q", ErrPrimerClash, name, f.Name)
				}
			}
		}
	}
	copied := make([]dna.Seq, len(strands))
	for i, s := range strands {
		copied[i] = s.Clone()
	}
	p.files = append(p.files, File{Name: name, Primers: pair, Strands: copied})
	return nil
}

// Files lists the stored file names in insertion order.
func (p *Pool) Files() []string {
	out := make([]string, len(p.files))
	for i, f := range p.files {
		out[i] = f.Name
	}
	return out
}

// Primers returns the primer pair addressing the named file.
func (p *Pool) Primers(name string) (primer.Pair, error) {
	for _, f := range p.files {
		if f.Name == name {
			return f.Primers, nil
		}
	}
	return primer.Pair{}, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// PCROptions parametrizes an amplification + sequencing run.
type PCROptions struct {
	// Channel is the sequencing noise model. Required.
	Channel sim.Channel
	// Coverage is the mean number of reads per molecule of the target file.
	Coverage int
	// Specificity controls cross-amplification: a molecule whose primers
	// are d Hamming steps from the target pair amplifies with relative
	// efficiency Specificity^d. At the default 0.35, a pair 6 steps away
	// contributes ≈0.2% of the target's coverage.
	Specificity float64
	// Seed drives all randomness.
	Seed uint64
}

// AccessContext performs PCR random access on the pool: the molecules of
// the file addressed by pair are amplified and sequenced, and reads of other
// files leak in according to the primer distance. Reads are returned with
// their origin file's index in Files() order, for evaluation; production
// decoding uses only the sequences. The amplification loop polls ctx
// between molecules, so a cancelled or deadline-exceeded context aborts a
// large pool access promptly with the context's cause instead of
// sequencing to completion. Cancellation does not perturb the read stream:
// a run that completes yields the same reads whatever the context.
func (p *Pool) AccessContext(ctx context.Context, pair primer.Pair, opts PCROptions) ([]sim.Read, error) {
	if opts.Channel == nil {
		return nil, errors.New("pool: PCROptions.Channel is required")
	}
	if opts.Coverage <= 0 {
		opts.Coverage = 10
	}
	if opts.Specificity == 0 {
		opts.Specificity = 0.35
	}
	var out []sim.Read
	for fi, f := range p.files {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		d := primerDistance(f.Primers, pair)
		eff := math.Pow(opts.Specificity, float64(d))
		meanReads := float64(opts.Coverage) * eff
		if meanReads < 1e-6 {
			continue
		}
		rng := xrand.Derive(opts.Seed, uint64(fi))
		for si, s := range f.Strands {
			if si&255 == 255 && ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
			n := rng.Poisson(meanReads)
			for c := 0; c < n; c++ {
				read := opts.Channel.Transmit(rng, s)
				// Sequencers read both strands: half arrive reversed.
				if rng.Bool(0.5) {
					read = read.ReverseComplement()
				}
				out = append(out, sim.Read{Seq: read, Origin: fi*1_000_000 + si})
			}
		}
	}
	return out, nil
}

// primerDistance is the summed Hamming distance between corresponding
// primers (0 when the pairs are identical).
func primerDistance(a, b primer.Pair) int {
	d := 0
	if len(a.Forward) == len(b.Forward) {
		d += dna.Hamming(a.Forward, b.Forward)
	} else {
		d += len(a.Forward)
	}
	if len(a.Reverse) == len(b.Reverse) {
		d += dna.Hamming(a.Reverse, b.Reverse)
	} else {
		d += len(a.Reverse)
	}
	return d
}
