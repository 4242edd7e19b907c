// Package gf256 implements arithmetic over the finite field GF(2^8) with the
// primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the conventional
// field for byte-oriented Reed–Solomon codes. It is the substrate for the
// toolkit's outer error-correcting code (§IV of the paper).
package gf256

// Order is the number of field elements.
const Order = 256

// poly is the primitive polynomial 0x11d reduced to 8 bits.
const poly = 0x1d

var (
	expTable [510]byte      // exp[i] = α^i, doubled so Div can skip a mod
	logTable [256]byte      // log[x] = i such that α^i = x; log[0] unused
	mulTable [256][256]byte // mulTable[a][b] = a·b, 64 KiB
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		expTable[i+255] = x
		logTable[x] = byte(i)
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= poly
		}
	}
	// Row and column 0 stay zero: 0·b = a·0 = 0.
	for a := 1; a < Order; a++ {
		for b := 1; b < Order; b++ {
			mulTable[a][b] = expTable[int(logTable[a])+int(logTable[b])]
		}
	}
}

// Add returns a+b in GF(2^8). Addition and subtraction are both XOR.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8) (identical to Add).
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8): one lookup in the product table.
func Mul(a, b byte) byte { return mulTable[a][b] }

// MulRow returns the products of c with every field element: row[y] = c·y.
// A loop that multiplies many symbols by one constant, such as a
// Reed–Solomon syndrome or parity step, indexes this row instead of
// calling Mul.
func MulRow(c byte) [Order]byte { return mulTable[c] }

// Div returns a/b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns α^n for the field generator α (n may be any integer).
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Log returns the discrete log of a (base α). It panics if a is zero.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// Poly is a polynomial over GF(2^8), coefficients in ascending-degree order:
// Poly{c0, c1, c2} represents c0 + c1·x + c2·x².
type Poly []byte

// Trim removes trailing zero coefficients so Degree is meaningful.
func (p Poly) Trim() Poly {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Degree() int { return len(p.Trim()) - 1 }

// Eval evaluates the polynomial at x using Horner's rule.
func (p Poly) Eval(x byte) byte {
	var y byte
	for i := len(p) - 1; i >= 0; i-- {
		y = Mul(y, x) ^ p[i]
	}
	return y
}

// AddPoly returns a+b.
func AddPoly(a, b Poly) Poly {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(Poly, n)
	copy(out, a)
	for i := range b {
		out[i] ^= b[i]
	}
	return out
}

// MulPoly returns a·b.
func MulPoly(a, b Poly) Poly {
	if len(a) == 0 || len(b) == 0 {
		return Poly{}
	}
	out := make(Poly, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= Mul(ai, bj)
		}
	}
	return out
}

// Scale returns p·c.
func (p Poly) Scale(c byte) Poly {
	out := make(Poly, len(p))
	for i, v := range p {
		out[i] = Mul(v, c)
	}
	return out
}

// Deriv returns the formal derivative of p. In characteristic 2 the even
// coefficients vanish: (Σ cᵢ xⁱ)' = Σ_{i odd} cᵢ x^{i-1}.
func (p Poly) Deriv() Poly {
	if len(p) <= 1 {
		return Poly{}
	}
	out := make(Poly, len(p)-1)
	for i := 1; i < len(p); i += 2 {
		out[i-1] = p[i]
	}
	return out.Trim()
}
