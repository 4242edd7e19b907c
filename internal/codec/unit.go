package codec

import "fmt"

// encodeUnit expands one unit's data block (K·PayloadBytes bytes, already
// mapper-permuted) into the full N·PayloadBytes matrix with Reed–Solomon
// parity placed according to the layout. The returned matrix is indexed
// [column][row]: column c is the payload of molecule c.
func (c *Codec) encodeUnit(unitData []byte) ([][]byte, error) {
	rows := c.p.PayloadBytes
	if len(unitData) != c.p.K*rows {
		return nil, fmt.Errorf("codec: unit data is %d bytes, want %d", len(unitData), c.p.K*rows)
	}
	matrix := make([][]byte, c.p.N)
	for col := range matrix {
		matrix[col] = make([]byte, rows)
	}
	// Data molecules carry contiguous file bytes: column c holds bytes
	// [c·rows, (c+1)·rows). The layout decides how codewords group cells.
	for col := 0; col < c.p.K; col++ {
		copy(matrix[col], unitData[col*rows:(col+1)*rows])
	}
	data := make([]byte, c.p.K)
	for cw := 0; cw < rows; cw++ {
		for j := 0; j < c.p.K; j++ {
			col, row := c.p.Layout.Cell(cw, j, rows)
			data[j] = matrix[col][row]
		}
		codeword, err := c.code.Encode(data)
		if err != nil {
			return nil, err
		}
		for j := c.p.K; j < c.p.N; j++ {
			col, row := c.p.Layout.Cell(cw, j, rows)
			matrix[col][row] = codeword[j]
		}
	}
	return matrix, nil
}

// decodeUnit recovers one unit's data block from its columns. columns[c] is
// the payload of molecule c, or nil when the molecule was lost (treated as
// an erasure in every codeword it participates in). Global damage counters
// accumulate into rep and per-unit counters into dmg. The returned data is
// still in layout order; the caller un-permutes it if a Mapper is in use.
func (c *Codec) decodeUnit(columns [][]byte, dmg *UnitDamage, rep *Report) ([]byte, error) {
	rows := c.p.PayloadBytes
	if len(columns) != c.p.N {
		return nil, fmt.Errorf("codec: unit has %d columns, want %d", len(columns), c.p.N)
	}
	erased := make([]bool, c.p.N)
	for col, payload := range columns {
		switch {
		case payload == nil:
			erased[col] = true
		case len(payload) != rows:
			// A reconstruction of the wrong length cannot be trusted at any
			// position: treat the whole molecule as an erasure.
			erased[col] = true
			rep.BadLengthColumns++
			dmg.BadLengthColumns++
		}
	}
	codeword := make([]byte, c.p.N)
	erasures := make([]int, 0, c.p.N)
	unitData := make([]byte, c.p.K*rows)
	for cw := 0; cw < rows; cw++ {
		erasures = erasures[:0]
		for j := 0; j < c.p.N; j++ {
			col, row := c.p.Layout.Cell(cw, j, rows)
			if erased[col] {
				codeword[j] = 0
				erasures = append(erasures, j)
			} else {
				codeword[j] = columns[col][row]
			}
		}
		data, corrected, err := c.code.Decode(codeword, erasures)
		if err != nil {
			rep.FailedCodewords++
			dmg.FailedCodewords++
			// Best effort: keep the systematic symbols we have so a partial
			// file still comes back (DNAMapper relies on this behaviour for
			// corruption-tolerant data).
			data = codeword[:c.p.K]
		} else {
			rep.CorrectedSymbols += corrected
			rep.ErasedSymbols += len(erasures)
		}
		for j := 0; j < c.p.K; j++ {
			col, row := c.p.Layout.Cell(cw, j, rows)
			unitData[col*rows+row] = data[j]
		}
	}
	return unitData, nil
}

// UnitDamage is one entry of the per-unit damage map: the decode outcome of
// a single encoding unit. Units that decoded without any missing, damaged or
// uncorrectable material do not appear in the map.
type UnitDamage struct {
	// Unit is the encoding-unit index (unit u spans file bytes
	// [u·UnitDataBytes, (u+1)·UnitDataBytes) of the framed file).
	Unit int
	// MissingColumns counts molecules of this unit never presented.
	MissingColumns int
	// BadLengthColumns counts molecules erased for a wrong-length payload.
	BadLengthColumns int
	// FailedCodewords counts codewords beyond the correction capability;
	// their bytes in the output are best-effort and may be wrong.
	FailedCodewords int
	// Salvaged is true when the unit's bytes were produced despite failed
	// codewords (best-effort systematic symbols) or a reconstructed header.
	Salvaged bool
}

// Clean reports whether the unit decoded without uncorrectable codewords.
func (u UnitDamage) Clean() bool { return u.FailedCodewords == 0 }

// Report summarizes a DecodeFileContext run: how much damage arrived from the
// pipeline and how much of it the outer code absorbed.
type Report struct {
	Strands          int // reconstructed strands presented to the decoder
	UnparsableStrand int // strands whose index/payload could not be parsed
	DuplicateIndex   int // strands discarded as duplicates of an index
	StrayIndex       int // strands whose index lies beyond the file's units
	MissingColumns   int // molecules never seen (column erasures)
	BadLengthColumns int // molecules with a wrong-length payload
	ErasedSymbols    int // codeword symbols recovered via erasure decoding
	CorrectedSymbols int // codeword symbols corrected as errors
	FailedCodewords  int // codewords beyond the code's correction capability

	// Units is the per-unit damage map: one entry (in unit order) for every
	// unit that arrived damaged, whether or not the outer code repaired it.
	Units []UnitDamage
	// Partial is true when the returned bytes are best-effort: some units
	// carry unverified data (failed codewords) or the file geometry itself
	// had to be reconstructed from observed indices (corrupt header unit).
	Partial bool
}

// Clean reports whether the decode recovered everything without any failed
// codewords.
func (r Report) Clean() bool { return r.FailedCodewords == 0 && !r.Partial }

// DamagedUnits returns the indices of units whose bytes are unverified
// (failed codewords), i.e. the regions of the output a caller must not
// trust. Units the outer code fully repaired are not included.
func (r Report) DamagedUnits() []int {
	var out []int
	for _, u := range r.Units {
		if !u.Clean() {
			out = append(out, u.Unit)
		}
	}
	return out
}

func (r Report) String() string {
	s := fmt.Sprintf("strands=%d unparsable=%d dup=%d stray=%d missing=%d badlen=%d erased=%d corrected=%d failed=%d",
		r.Strands, r.UnparsableStrand, r.DuplicateIndex, r.StrayIndex, r.MissingColumns,
		r.BadLengthColumns, r.ErasedSymbols, r.CorrectedSymbols, r.FailedCodewords)
	if r.Partial {
		s += fmt.Sprintf(" partial=true damaged-units=%v", r.DamagedUnits())
	}
	return s
}
