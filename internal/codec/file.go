package codec

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"dnastore/internal/dna"
)

// headerBytes is the framed-file header: a big-endian uint64 length.
const headerBytes = 8

// frame prepends the length header and pads to a whole number of units.
func (c *Codec) frame(data []byte) []byte {
	unit := c.UnitDataBytes()
	total := headerBytes + len(data)
	units := (total + unit - 1) / unit
	framed := make([]byte, units*unit)
	binary.BigEndian.PutUint64(framed, uint64(len(data)))
	copy(framed[headerBytes:], data)
	return framed
}

// EncodeFile encodes data into DNA strands, one strand per molecule, in
// index order. The strand layout follows Fig. 2a of the paper:
// [primer][index][scrambled payload][primer].
func (c *Codec) EncodeFile(data []byte) ([]dna.Seq, error) {
	framed := c.frame(data)
	unitBytes := c.UnitDataBytes()
	units := len(framed) / unitBytes
	if need := c.p.IndexOffset + uint64(units)*uint64(c.p.N); need > c.MaxMolecules() {
		return nil, fmt.Errorf("codec: file needs molecule indices up to %d but IndexBases=%d addresses only %d",
			need, c.p.IndexBases, c.MaxMolecules())
	}
	mask := c.indexMask()
	strands := make([]dna.Seq, 0, units*c.p.N)
	for u := 0; u < units; u++ {
		unitData := framed[u*unitBytes : (u+1)*unitBytes]
		if c.p.Mapper != nil {
			unitData = c.p.Mapper.Permute(u, unitData)
		}
		matrix, err := c.encodeUnit(unitData)
		if err != nil {
			return nil, err
		}
		for col := 0; col < c.p.N; col++ {
			idx := c.p.IndexOffset + uint64(u*c.p.N+col)
			payload := append([]byte(nil), matrix[col]...)
			c.scramble(idx, payload)
			inner := make(dna.Seq, 0, c.InnerLen())
			inner = append(inner, dna.EncodeUint(idx^mask, c.p.IndexBases)...)
			inner = append(inner, dna.FromBytes(payload)...)
			if c.p.Primers != nil {
				strands = append(strands, c.p.Primers.Attach(inner))
			} else {
				strands = append(strands, inner)
			}
		}
	}
	return strands, nil
}

// ParseStrand extracts the molecule index and descrambled payload from a
// reconstructed strand. The strand must be in forward orientation; primers
// (when configured) are stripped by position since reconstructed strands
// have the nominal length. Wrong-length strands are rejected.
func (c *Codec) ParseStrand(strand dna.Seq) (uint64, []byte, error) {
	inner := strand
	if c.p.Primers != nil {
		fl, rl := len(c.p.Primers.Forward), len(c.p.Primers.Reverse)
		if len(strand) != c.StrandLen() {
			return 0, nil, fmt.Errorf("%w: strand length %d, want %d", ErrDecode, len(strand), c.StrandLen())
		}
		inner = strand[fl : len(strand)-rl]
	}
	if len(inner) != c.InnerLen() {
		return 0, nil, fmt.Errorf("%w: inner length %d, want %d", ErrDecode, len(inner), c.InnerLen())
	}
	idx := dna.DecodeUint(inner[:c.p.IndexBases]) ^ c.indexMask()
	payload, err := dna.ToBytes(inner[c.p.IndexBases:])
	if err != nil {
		return 0, nil, err
	}
	c.scramble(idx, payload)
	return idx, payload, nil
}

// DecodeOptions tweaks DecodeFileContext.
type DecodeOptions struct {
	// BestEffort salvages whatever can be recovered instead of failing when
	// the file cannot be framed normally: a corrupt or implausible header
	// unit no longer aborts the decode — the file geometry is reconstructed
	// from the observed molecule indices instead — and the returned bytes
	// cover every decodable unit, with Report.Units mapping the regions that
	// must not be trusted and Report.Partial set.
	BestEffort bool
}

// minPresentColumns is the fraction of a unit's molecules (1/denominator)
// that must have been observed for the unit to count as real when the file
// geometry is reconstructed without a trustworthy header (best-effort mode).
// It keeps a single corrupt index from conjuring phantom trailing units.
const minPresentColumnsDenom = 4

// DecodeFileContext reassembles and error-corrects a file from
// reconstructed strands (any order; duplicates, losses and wrong lengths
// tolerated up to the code's correction capability). The Report describes
// the damage seen and repaired; err is non-nil only when the file cannot be
// framed at all (e.g. the first unit is unrecoverable). When some codewords
// exceed the code's capability, DecodeFileContext still returns the
// best-effort bytes with rep.FailedCodewords > 0, which is the behaviour
// DNAMapper's corruption-tolerant data relies on. Cancellation is checked
// between units; opts enables best-effort salvage (see DecodeOptions).
func (c *Codec) DecodeFileContext(ctx context.Context, strands []dna.Seq, opts DecodeOptions) ([]byte, Report, error) {
	var rep Report
	rep.Strands = len(strands)
	if ctx.Err() != nil {
		return nil, rep, context.Cause(ctx)
	}
	byIndex := map[uint64][]byte{}
	for i, s := range strands {
		if i&1023 == 1023 && ctx.Err() != nil {
			return nil, rep, context.Cause(ctx)
		}
		idx, payload, err := c.ParseStrand(s)
		if err != nil {
			rep.UnparsableStrand++
			continue
		}
		// Indices are absolute within the archive's shared index space; the
		// decoder works in file-relative indices so everything downstream
		// (unit math, geometry reconstruction) is offset-agnostic. A strand
		// from before this file's range is as unparsable as a garbage index.
		if idx < c.p.IndexOffset || idx >= c.MaxMolecules() {
			rep.UnparsableStrand++
			continue
		}
		idx -= c.p.IndexOffset
		if _, dup := byIndex[idx]; dup {
			rep.DuplicateIndex++
			continue
		}
		byIndex[idx] = payload
	}
	if len(byIndex) == 0 {
		return nil, rep, fmt.Errorf("%w: no parsable strands", ErrDecode)
	}
	unitBytes := c.UnitDataBytes()

	decodeOne := func(u int) ([]byte, error) {
		dmg := UnitDamage{Unit: u}
		columns := make([][]byte, c.p.N)
		for col := 0; col < c.p.N; col++ {
			if payload, ok := byIndex[uint64(u*c.p.N+col)]; ok {
				columns[col] = payload
			} else {
				rep.MissingColumns++
				dmg.MissingColumns++
			}
		}
		unitData, err := c.decodeUnit(columns, &dmg, &rep)
		if err != nil {
			return nil, err
		}
		dmg.Salvaged = dmg.FailedCodewords > 0
		if dmg.MissingColumns > 0 || dmg.BadLengthColumns > 0 || dmg.FailedCodewords > 0 {
			rep.Units = append(rep.Units, dmg)
		}
		if c.p.Mapper != nil {
			unitData = c.p.Mapper.Unpermute(u, unitData)
		}
		return unitData, nil
	}

	// Decode unit 0 first: its header fixes the file length and therefore
	// the number of units. Deriving the unit count from the header — not
	// from the largest observed index — keeps one corrupted reconstruction
	// with a garbage index from conjuring thousands of phantom units.
	first, err := decodeOne(0)
	if err != nil {
		return nil, rep, err
	}
	length := binary.BigEndian.Uint64(first)
	headerOK := length <= uint64(len(byIndex))*uint64(unitBytes)
	var units int
	if headerOK {
		units = (headerBytes + int(length) + unitBytes - 1) / unitBytes
	} else {
		if !opts.BestEffort {
			return nil, rep, fmt.Errorf("%w: header claims %d bytes, implausible for %d parsed molecules (corrupt header unit)",
				ErrDecode, length, len(byIndex))
		}
		// Best effort with an untrustworthy header: reconstruct the file
		// geometry from the observed indices. Only units for which a
		// meaningful fraction of molecules actually arrived count, so a
		// stray corrupt index cannot conjure phantom trailing units.
		present := map[int]int{}
		for idx := range byIndex {
			present[int(idx)/c.p.N]++
		}
		for u, n := range present {
			if n >= (c.p.N+minPresentColumnsDenom-1)/minPresentColumnsDenom && u+1 > units {
				units = u + 1
			}
		}
		if units == 0 {
			return nil, rep, fmt.Errorf("%w: corrupt header and no unit has enough molecules to salvage", ErrDecode)
		}
		rep.Partial = true
		// The header's length field is unusable: return every salvaged
		// byte, flagging unit 0 so the caller knows its bytes (including
		// the length header) are unverified.
		length = uint64(units*unitBytes - headerBytes)
		flagged := false
		for i := range rep.Units {
			if rep.Units[i].Unit == 0 {
				rep.Units[i].Salvaged = true
				flagged = true
			}
		}
		if !flagged {
			rep.Units = append([]UnitDamage{{Unit: 0, Salvaged: true}}, rep.Units...)
		}
	}
	// Indexes beyond the expected range are strays from corrupt
	// reconstructions; count them once, now that the range is known.
	for idx := range byIndex {
		if idx >= uint64(units)*uint64(c.p.N) {
			rep.StrayIndex++
		}
	}
	framed := make([]byte, 0, units*unitBytes)
	framed = append(framed, first...)
	for u := 1; u < units; u++ {
		if ctx.Err() != nil {
			return nil, rep, context.Cause(ctx)
		}
		unitData, err := decodeOne(u)
		if err != nil {
			return nil, rep, err
		}
		framed = append(framed, unitData...)
	}
	if length > uint64(len(framed)-headerBytes) {
		return nil, rep, fmt.Errorf("%w: header claims %d bytes but only %d decoded", ErrDecode, length, len(framed)-headerBytes)
	}
	if rep.FailedCodewords > 0 {
		rep.Partial = true
	}
	return framed[headerBytes : headerBytes+int(length)], rep, nil
}

// Molecules returns the expected number of strands for a file of the given
// size (useful for provisioning simulations).
func (c *Codec) Molecules(fileSize int) int {
	unit := c.UnitDataBytes()
	units := (headerBytes + fileSize + unit - 1) / unit
	return units * c.p.N
}

// SortByIndex orders reconstructed strands by their decoded molecule index;
// unparsable strands sort last. Useful for deterministic inspection.
func (c *Codec) SortByIndex(strands []dna.Seq) {
	key := func(s dna.Seq) uint64 {
		idx, _, err := c.ParseStrand(s)
		if err != nil {
			return ^uint64(0)
		}
		return idx
	}
	sort.SliceStable(strands, func(i, j int) bool { return key(strands[i]) < key(strands[j]) })
}
