package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if Add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatal("Add is not XOR")
	}
	if Sub(0x53, 0xCA) != Add(0x53, 0xCA) {
		t.Fatal("Sub != Add in characteristic 2")
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for %d", a)
		}
		if Mul(byte(a), 0) != 0 {
			t.Fatalf("a*0 != 0 for %d", a)
		}
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(a, b) == Mul(b, a) && Mul(a, Mul(b, c)) == Mul(Mul(a, b), c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(a, b^c) == Mul(a, b)^Mul(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refMul is the log/antilog product the table replaced, kept as its
// oracle.
func refMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

func TestMulTableMatchesLogProduct(t *testing.T) {
	for a := 0; a < Order; a++ {
		row := MulRow(byte(a))
		for b := 0; b < Order; b++ {
			want := refMul(byte(a), byte(b))
			if got := Mul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
			if row[b] != want {
				t.Fatalf("MulRow(%#x)[%#x] = %#x, want %#x", a, b, row[b], want)
			}
		}
	}
}

func TestKnownProduct(t *testing.T) {
	// For polynomial 0x11d: 2·0x80 = 0x100 mod 0x11d = 0x1d.
	if got := Mul(2, 0x80); got != 0x1d {
		t.Fatalf("2*0x80 = %#x, want 0x1d", got)
	}
	// α = 2 is the generator, so Mul(2, x) must equal Exp(Log(x)+1).
	for x := 1; x < 256; x++ {
		if Mul(2, byte(x)) != Exp(Log(byte(x))+1) {
			t.Fatalf("doubling mismatch at %d", x)
		}
	}
}

func TestInverses(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a*Inv(a) != 1 for %d", a)
		}
		if Div(1, byte(a)) != inv {
			t.Fatalf("Div(1,a) != Inv(a) for %d", a)
		}
	}
}

func TestDivInverseOfMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Div(Mul(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Div(5, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Inv(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) mismatch", a)
		}
	}
	for n := -300; n < 600; n++ {
		if Exp(n) == 0 {
			t.Fatalf("Exp(%d) = 0", n)
		}
		if Exp(n) != Exp(n+255) {
			t.Fatalf("Exp not periodic at %d", n)
		}
	}
}

func TestGeneratorOrder(t *testing.T) {
	// α must generate all 255 nonzero elements.
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator produced %d distinct elements", len(seen))
	}
}

func TestPolyEval(t *testing.T) {
	// p(x) = 3 + 2x + x²  at x=2: 3 ^ Mul(2,2) ^ Mul(1,4) = 3^4^4 = 3
	p := Poly{3, 2, 1}
	want := byte(3) ^ Mul(2, 2) ^ Mul(1, Mul(2, 2))
	if got := p.Eval(2); got != want {
		t.Fatalf("Eval = %#x want %#x", got, want)
	}
}

func TestPolyEvalZeroPoly(t *testing.T) {
	if (Poly{}).Eval(7) != 0 {
		t.Fatal("zero poly should evaluate to 0")
	}
}

func TestPolyDegreeAndTrim(t *testing.T) {
	if (Poly{0, 0}).Degree() != -1 {
		t.Fatal("zero poly degree")
	}
	if (Poly{1, 2, 0, 0}).Degree() != 1 {
		t.Fatal("trailing zeros not trimmed")
	}
}

func TestMulPolyDegrees(t *testing.T) {
	a := Poly{1, 1}    // 1+x
	b := Poly{1, 0, 1} // 1+x²
	c := MulPoly(a, b) // (1+x)(1+x²) = 1+x+x²+x³
	want := Poly{1, 1, 1, 1}
	if len(c) != len(want) {
		t.Fatalf("len = %d", len(c))
	}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("coef %d = %d want %d", i, c[i], want[i])
		}
	}
}

func TestMulPolyEvalHomomorphism(t *testing.T) {
	f := func(a, b []byte, x byte) bool {
		if len(a) > 10 {
			a = a[:10]
		}
		if len(b) > 10 {
			b = b[:10]
		}
		pa, pb := Poly(a), Poly(b)
		return MulPoly(pa, pb).Eval(x) == Mul(pa.Eval(x), pb.Eval(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddPolyEvalHomomorphism(t *testing.T) {
	f := func(a, b []byte, x byte) bool {
		pa, pb := Poly(a), Poly(b)
		return AddPoly(pa, pb).Eval(x) == pa.Eval(x)^pb.Eval(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScale(t *testing.T) {
	p := Poly{1, 2, 3}
	s := p.Scale(5)
	for i := range p {
		if s[i] != Mul(p[i], 5) {
			t.Fatalf("scale mismatch at %d", i)
		}
	}
}

func TestDeriv(t *testing.T) {
	// p = c0 + c1 x + c2 x² + c3 x³ → p' = c1 + c3 x² (char 2)
	p := Poly{9, 7, 5, 3}
	d := p.Deriv()
	want := Poly{7, 0, 3}
	if len(d) != len(want) {
		t.Fatalf("deriv len = %d want %d (%v)", len(d), len(want), d)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("deriv coef %d = %d want %d", i, d[i], want[i])
		}
	}
	if len((Poly{5}).Deriv()) != 0 {
		t.Fatal("constant derivative should be zero poly")
	}
}
