// Package rs implements systematic Reed–Solomon codes over GF(2^8) with
// correction of both errors and erasures. This is the outer code of the DNA
// storage architecture (§IV): every row of an encoding unit's matrix is one
// RS codeword, and molecules lost in the wetlab surface as column erasures.
//
// A Code with n total symbols and k data symbols corrects up to (n-k)/2
// symbol errors, or any mix with e errors and f erasures while 2e+f <= n-k.
// The implementation is the classical pipeline: syndromes, Forney syndromes
// to fold in erasures, Berlekamp–Massey for the error locator, Chien search
// for the positions, and the Forney algorithm for magnitudes.
package rs

import (
	"errors"
	"fmt"

	"dnastore/internal/gf256"
)

// Code is a Reed–Solomon code with fixed parameters. It is safe for
// concurrent use: encoding and decoding do not mutate the Code.
//
// Both per-codeword loops multiply by constants of the code, so the Code
// keeps their product rows (gf256.MulRow) and each product is one lookup:
// genRows[j][y] = g_{j+1}·y for the generator's non-leading coefficients,
// syndRows[j][y] = α^j·y for the syndrome roots.
type Code struct {
	n, k     int
	genRows  [][gf256.Order]byte
	syndRows [][gf256.Order]byte
}

// ErrTooManyErrors is returned when a codeword is corrupted beyond the
// code's correction capability.
var ErrTooManyErrors = errors.New("rs: too many errors to correct")

// ErrShape is returned (wrapped, with detail) when Decode or Encode inputs
// are structurally malformed — nil or wrong-length codewords, erasure
// indices out of range or duplicated — as opposed to well-formed but
// uncorrectable codewords, which yield ErrTooManyErrors. Callers that
// retry with different erasure sets can use errors.Is(err, ErrShape) to
// tell "fix the call" apart from "the data is gone".
var ErrShape = errors.New("malformed input shape")

// New returns a Reed–Solomon code with n total symbols of which k are data.
// Requires 0 < k < n <= 255.
func New(n, k int) (*Code, error) {
	if k <= 0 || k >= n || n > 255 {
		return nil, fmt.Errorf("rs: invalid parameters n=%d k=%d (need 0 < k < n <= 255)", n, k)
	}
	nsym := n - k
	// g(x) = Π_{j=0}^{nsym-1} (x - α^j), built in ascending order.
	gen := gf256.Poly{1}
	for j := 0; j < nsym; j++ {
		gen = gf256.MulPoly(gen, gf256.Poly{gf256.Exp(j), 1})
	}
	// gen is monic of degree nsym; big-endian, its coefficients after the
	// leading 1 are gen[nsym-1], ..., gen[0].
	c := &Code{n: n, k: k, genRows: make([][gf256.Order]byte, nsym), syndRows: make([][gf256.Order]byte, nsym)}
	for j := range c.genRows {
		c.genRows[j] = gf256.MulRow(gen[nsym-1-j])
		c.syndRows[j] = gf256.MulRow(gf256.Exp(j))
	}
	return c, nil
}

// N returns the codeword length in symbols.
func (c *Code) N() int { return c.n }

// K returns the number of data symbols per codeword.
func (c *Code) K() int { return c.k }

// Parity returns the number of parity symbols (n - k).
func (c *Code) Parity() int { return c.n - c.k }

// Encode appends parity to data, returning a systematic codeword of length n.
// len(data) must equal K().
func (c *Code) Encode(data []byte) ([]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: Encode needs %d data bytes, got %d: %w", c.k, len(data), ErrShape)
	}
	out := make([]byte, c.n)
	copy(out, data)
	// Synthetic division of data(x)·x^nsym by the monic generator; the
	// remainder left in the tail is the parity.
	for i := 0; i < c.k; i++ {
		coef := out[i]
		if coef == 0 {
			continue
		}
		tail := out[i+1 : i+1+len(c.genRows)]
		for j := range tail {
			tail[j] ^= c.genRows[j][coef]
		}
	}
	copy(out, data) // the division clobbered the data prefix; restore it
	return out, nil
}

// syndromes writes S_j = R(α^j) for j = 0..nsym-1 into synd, which must
// hold nsym symbols, and reports whether all are zero. Horner's step
// y·α^j ⊕ v reads y·α^j from the root's product row.
//
//dnalint:hotpath -- runs on every received codeword, clean ones included
func (c *Code) syndromes(cw, synd []byte) bool {
	synd = synd[:len(c.syndRows)]
	var or byte
	j := 0
	// Four roots per pass over the word: each Horner chain waits on its
	// own lookups, so four independent chains keep the loads in flight.
	for ; j+4 <= len(synd); j += 4 {
		r0, r1, r2, r3 := &c.syndRows[j], &c.syndRows[j+1], &c.syndRows[j+2], &c.syndRows[j+3]
		var y0, y1, y2, y3 byte
		for _, v := range cw {
			y0 = r0[y0] ^ v
			y1 = r1[y1] ^ v
			y2 = r2[y2] ^ v
			y3 = r3[y3] ^ v
		}
		synd[j], synd[j+1], synd[j+2], synd[j+3] = y0, y1, y2, y3
		or |= y0 | y1 | y2 | y3
	}
	for ; j < len(synd); j++ {
		row := &c.syndRows[j]
		var y byte
		for _, v := range cw {
			y = row[y] ^ v
		}
		synd[j] = y
		or |= y
	}
	return or == 0
}

// Decode corrects a received codeword in a copy and returns the data
// symbols and the number of symbols it corrected: positions outside
// erasures whose value it changed. erasures lists known-bad codeword
// indices (0-based); it may be nil. Decode returns ErrTooManyErrors when
// correction is impossible or the corrected word fails re-validation.
func (c *Code) Decode(codeword []byte, erasures []int) ([]byte, int, error) {
	if len(codeword) != c.n {
		return nil, 0, fmt.Errorf("rs: Decode needs %d symbols, got %d: %w", c.n, len(codeword), ErrShape)
	}
	nsym := c.n - c.k
	if len(erasures) > nsym {
		return nil, 0, ErrTooManyErrors
	}
	var erased [256]bool
	for _, e := range erasures {
		if e < 0 || e >= c.n {
			return nil, 0, fmt.Errorf("rs: erasure index %d out of range [0,%d): %w", e, c.n, ErrShape)
		}
		if erased[e] {
			// A duplicated erasure would put a repeated root in the erasure
			// locator and silently waste correction capability.
			return nil, 0, fmt.Errorf("rs: duplicate erasure index %d: %w", e, ErrShape)
		}
		erased[e] = true
	}

	cw := append([]byte(nil), codeword...)
	var buf [255]byte
	synd := buf[:nsym]
	if c.syndromes(cw, synd) {
		return cw[:c.k], 0, nil
	}

	// Erasure locator Λ_e(x) = Π (1 - X x) with X = α^(n-1-i).
	erasureLoc := gf256.Poly{1}
	for _, i := range erasures {
		x := gf256.Exp(c.n - 1 - i)
		erasureLoc = gf256.MulPoly(erasureLoc, gf256.Poly{1, x})
	}

	// Forney syndromes: remove the erasure contribution so Berlekamp–Massey
	// sees errors only. Each erasure consumes one syndrome.
	fsynd := append([]byte(nil), synd...)
	for _, i := range erasures {
		x := gf256.Exp(c.n - 1 - i)
		for j := 0; j < len(fsynd)-1; j++ {
			fsynd[j] = gf256.Mul(fsynd[j], x) ^ fsynd[j+1]
		}
		fsynd = fsynd[:len(fsynd)-1]
	}

	errLoc, err := berlekampMassey(fsynd)
	if err != nil {
		return nil, 0, err
	}
	numErrors := errLoc.Degree()
	if 2*numErrors > len(fsynd) {
		return nil, 0, ErrTooManyErrors
	}

	// Combined errata locator and its roots (Chien search over positions).
	loc := gf256.MulPoly(errLoc, erasureLoc)
	positions := make([]int, 0, loc.Degree())
	for i := 0; i < c.n; i++ {
		p := c.n - 1 - i
		if loc.Eval(gf256.Exp(-p)) == 0 {
			positions = append(positions, i)
		}
	}
	if len(positions) != loc.Degree() {
		return nil, 0, ErrTooManyErrors
	}

	// Forney algorithm: Ω(x) = S(x)·Λ(x) mod x^nsym, then for each errata
	// position with X = α^p the magnitude is Y = X·Ω(X⁻¹)/Λ'(X⁻¹). The
	// corrected word differs from the received one exactly where a non-zero
	// magnitude is XORed in, so those outside the erasures are the
	// corrections.
	omega := gf256.MulPoly(gf256.Poly(synd), loc)
	if len(omega) > nsym {
		omega = omega[:nsym]
	}
	deriv := loc.Deriv()
	corrected := 0
	for _, i := range positions {
		p := c.n - 1 - i
		xInv := gf256.Exp(-p)
		den := deriv.Eval(xInv)
		if den == 0 {
			return nil, 0, ErrTooManyErrors
		}
		y := gf256.Div(gf256.Mul(gf256.Exp(p), omega.Eval(xInv)), den)
		if y != 0 && !erased[i] {
			corrected++
		}
		cw[i] ^= y
	}

	if !c.syndromes(cw, synd) {
		return nil, 0, ErrTooManyErrors
	}
	return cw[:c.k], corrected, nil
}

// berlekampMassey finds the minimal error-locator polynomial for the given
// (Forney) syndromes, in ascending order with constant term 1.
func berlekampMassey(synd []byte) (gf256.Poly, error) {
	cPoly := gf256.Poly{1}
	bPoly := gf256.Poly{1}
	l, m := 0, 1
	b := byte(1)
	for n := 0; n < len(synd); n++ {
		// Discrepancy d = S_n + Σ_{i=1..l} c_i S_{n-i}.
		d := synd[n]
		for i := 1; i <= l && i < len(cPoly); i++ {
			d ^= gf256.Mul(cPoly[i], synd[n-i])
		}
		if d == 0 {
			m++
			continue
		}
		scale := gf256.Div(d, b)
		// c(x) -= (d/b)·x^m·b(x)
		shifted := make(gf256.Poly, m+len(bPoly))
		for i, v := range bPoly {
			shifted[m+i] = gf256.Mul(v, scale)
		}
		next := gf256.AddPoly(cPoly, shifted)
		if 2*l <= n {
			bPoly = cPoly
			b = d
			l = n + 1 - l
			m = 1
		} else {
			m++
		}
		cPoly = next
	}
	if cPoly.Degree() != l {
		return nil, ErrTooManyErrors
	}
	return cPoly.Trim(), nil
}
