// Package codec implements the encoding/decoding module of the DNA storage
// pipeline (§IV of the paper): it converts a binary file into DNA strands
// protected by an outer Reed–Solomon code and back.
//
// The architecture follows Organick et al.: an encoding unit is a matrix in
// which every DNA molecule is a column and every Reed–Solomon codeword is a
// row (Fig. 2b). Three layouts are provided:
//
//   - Baseline: codeword i occupies row i of every column.
//   - Gini: codewords are spread diagonally, so the reliability skew that
//     double-sided BMA concentrates on middle rows is equalized across all
//     codewords (§IV-B).
//   - DNAMapper: an optional pre-layout permutation that maps data with
//     higher reliability needs onto more reliable rows (§IV-C).
//
// Encoding is unconstrained (2 bits/base) with per-molecule randomization:
// payloads are XORed with a seeded keystream, which keeps homopolymer runs
// short and GC content balanced with high probability while keeping the full
// coding density (§II-D).
package codec

import (
	"errors"
	"fmt"

	"dnastore/internal/dna"
	"dnastore/internal/primer"
	"dnastore/internal/rs"
	"dnastore/internal/xrand"
)

// Layout places the symbols of each Reed–Solomon codeword into the unit
// matrix. Implementations must be bijections from (codeword, symbol) to
// (column, row) for codeword, row in [0, rows) and symbol, column in [0, n).
type Layout interface {
	// Name identifies the layout in reports.
	Name() string
	// Cell returns the matrix cell holding symbol j of codeword i, for a
	// unit with the given number of rows.
	Cell(codeword, symbol, rows int) (col, row int)
}

// BaselineLayout is the Organick et al. row-per-codeword layout.
type BaselineLayout struct{}

// Name implements Layout.
func (BaselineLayout) Name() string { return "baseline" }

// Cell implements Layout: symbol j of codeword i lives at column j, row i.
//
//dnalint:hotpath -- called for every symbol of every codeword
func (BaselineLayout) Cell(codeword, symbol, rows int) (col, row int) {
	return symbol, codeword
}

// GiniLayout spreads codewords diagonally (Lin et al., ISCA'22): symbol j of
// codeword i lives at column j, row (i+j) mod rows, so the error-prone middle
// rows are shared evenly by all codewords.
type GiniLayout struct{}

// Name implements Layout.
func (GiniLayout) Name() string { return "gini" }

// Cell implements Layout.
//
//dnalint:hotpath -- called for every symbol of every codeword
func (GiniLayout) Cell(codeword, symbol, rows int) (col, row int) {
	return symbol, (codeword + symbol) % rows
}

// Params configures a Codec. The zero value is not valid; use NewCodec to
// validate and apply defaults.
type Params struct {
	// N is the number of molecules (columns) per encoding unit; K of them
	// carry data and N-K carry Reed–Solomon parity. 0 < K < N <= 255.
	N, K int
	// PayloadBytes is the number of payload bytes per molecule, i.e. the
	// number of matrix rows (and of RS codewords) per unit. Each byte costs
	// 4 bases, so the payload is 4·PayloadBytes nt long.
	PayloadBytes int
	// IndexBases is the width of the per-molecule index field. Defaults to
	// 8 bases (65536 addressable molecules).
	IndexBases int
	// Seed drives the randomizing scrambler. The same seed must be used to
	// encode and decode.
	Seed uint64
	// IndexSeed, when non-zero, seeds the index mask independently of Seed.
	// The volume layer uses it to give every volume its own scramble
	// keystream (derived Seed) while keeping one archive-wide index mask, so
	// a pooled read's index prefix can be unmasked — and the read routed to
	// its volume — without knowing the volume first. 0 means the mask is
	// derived from Seed, which is the classic single-file behaviour.
	IndexSeed uint64
	// IndexOffset is the molecule index assigned to the first strand of the
	// encoded file. The volume layer gives volume v the offset
	// v·capacity so all volumes of an archive share one global index space
	// (the demux stage divides an observed index by the capacity to recover
	// the volume id). 0 is the classic single-file behaviour.
	IndexOffset uint64
	// Layout places codeword symbols in the matrix. Defaults to BaselineLayout.
	Layout Layout
	// Mapper optionally permutes each unit's data bytes before layout
	// (DNAMapper, §IV-C). Nil means the identity mapping.
	Mapper *Mapper
	// Primers, when set, are attached around every encoded molecule and
	// located-and-stripped during decode.
	Primers *primer.Pair
}

// Codec encodes files into DNA strands and decodes reconstructed strands
// back into files. Codecs are immutable and safe for concurrent use.
type Codec struct {
	p    Params
	code *rs.Code
}

// NewCodec validates params and returns a Codec.
func NewCodec(p Params) (*Codec, error) {
	if p.Layout == nil {
		p.Layout = BaselineLayout{}
	}
	if p.IndexBases == 0 {
		p.IndexBases = 8
	}
	if p.PayloadBytes <= 0 {
		return nil, fmt.Errorf("codec: PayloadBytes must be positive, got %d", p.PayloadBytes)
	}
	if p.IndexBases < 1 || p.IndexBases > 31 {
		return nil, fmt.Errorf("codec: IndexBases %d out of range [1,31]", p.IndexBases)
	}
	code, err := rs.New(p.N, p.K)
	if err != nil {
		return nil, err
	}
	if p.K*p.PayloadBytes < headerBytes {
		// DecodeFileContext reads a uint64 length header from the first
		// unit; a geometry that cannot hold it would panic there on valid
		// input.
		return nil, fmt.Errorf("codec: unit carries %d data bytes (K·PayloadBytes), need at least %d for the file header",
			p.K*p.PayloadBytes, headerBytes)
	}
	if max := maxMoleculesFor(p.IndexBases); p.IndexOffset >= max {
		return nil, fmt.Errorf("codec: IndexOffset %d exceeds the %d addresses of IndexBases=%d",
			p.IndexOffset, max, p.IndexBases)
	}
	if p.Mapper != nil && len(p.Mapper.profile) != p.PayloadBytes {
		return nil, fmt.Errorf("codec: mapper profile has %d rows, unit has %d", len(p.Mapper.profile), p.PayloadBytes)
	}
	return &Codec{p: p, code: code}, nil
}

// Params returns the codec's validated parameters.
func (c *Codec) Params() Params { return c.p }

// UnitDataBytes returns the number of file bytes carried by one unit.
func (c *Codec) UnitDataBytes() int { return c.p.K * c.p.PayloadBytes }

// StrandLen returns the full length in bases of every encoded strand,
// including index and primers.
func (c *Codec) StrandLen() int {
	n := c.p.IndexBases + c.p.PayloadBytes*dna.BasesPerByte
	if c.p.Primers != nil {
		n += len(c.p.Primers.Forward) + len(c.p.Primers.Reverse)
	}
	return n
}

// InnerLen returns the strand length without primers (index + payload).
func (c *Codec) InnerLen() int {
	return c.p.IndexBases + c.p.PayloadBytes*dna.BasesPerByte
}

// MaxMolecules is the number of distinct molecule addresses IndexBases can
// express. Callers provisioning a multi-volume archive should check
// volumes·VolumeCapacity against it before encoding: the volume layer
// assigns every volume a disjoint slice of this one address space.
func (c *Codec) MaxMolecules() uint64 { return maxMoleculesFor(c.p.IndexBases) }

func maxMoleculesFor(indexBases int) uint64 {
	if indexBases >= 32 {
		return 1 << 62
	}
	return 1 << (2 * uint(indexBases))
}

// indexMask randomizes the on-strand appearance of the index field while
// preserving uniqueness: the index value is XORed with a seed-derived
// constant before base encoding. The mask derives from IndexSeed when set
// (volume mode: one mask across all volumes of an archive) and from Seed
// otherwise (classic single-file mode).
func (c *Codec) indexMask() uint64 {
	seed := c.p.Seed
	if c.p.IndexSeed != 0 {
		seed = c.p.IndexSeed
	}
	return c.indexMaskFrom(seed)
}

// indexMaskFrom derives an index mask from seed: one keystream word,
// truncated to the index address space.
func (c *Codec) indexMaskFrom(seed uint64) uint64 {
	var b [8]byte
	xrand.Keystream(seed^0x1db5_a2ca_7745_9f01, b[:])
	var m uint64
	for i, v := range b {
		m |= uint64(v) << (8 * uint(i))
	}
	return m & (c.MaxMolecules() - 1)
}

// scramble XORs buf with the keystream for molecule idx (an involution).
func (c *Codec) scramble(idx uint64, buf []byte) {
	ks := make([]byte, len(buf))
	xrand.Keystream(c.p.Seed^(0xa076_1d64_78bd_642f*(idx+1)), ks)
	for i := range buf {
		buf[i] ^= ks[i]
	}
}

// ErrDecode is wrapped by all unrecoverable decode failures.
var ErrDecode = errors.New("codec: decode failed")

// Density reports the information density achieved for a file of the given
// size: logical bits per nucleotide counting only payload bases, and
// physical bits per nucleotide counting the full synthesized strands
// (index, RS parity molecules and primers included). Unconstrained coding
// tops out at 2 bits/nt logical (§II-D); the physical figure is what a
// synthesis order is billed on.
func (c *Codec) Density(fileSize int) (logical, physical float64) {
	molecules := c.Molecules(fileSize)
	if molecules == 0 || fileSize == 0 {
		return 0, 0
	}
	bits := float64(8 * fileSize)
	payloadBases := float64(molecules * c.p.PayloadBytes * dna.BasesPerByte)
	totalBases := float64(molecules * c.StrandLen())
	return bits / payloadBases, bits / totalBases
}
