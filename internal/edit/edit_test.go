package edit

import (
	"testing"
	"testing/quick"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

func seq(s string) dna.Seq { return dna.MustFromString(s) }

func randSeq(r *xrand.RNG, n int) dna.Seq { return dna.Random(r, n) }

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"A", "", 1},
		{"", "ACGT", 4},
		{"ACGT", "ACGT", 0},
		{"ACGT", "AGGT", 1},
		{"ACGT", "CGT", 1},
		{"ACGT", "ACGTT", 1},
		{"AAAA", "TTTT", 4},
		{"ACGTACGT", "TACG", 4},
		{"GATTACA", "GCATGCT", 4}, // classic wikipedia-ish pair over DNA alphabet
	}
	for _, tc := range cases {
		var a, b dna.Seq
		if tc.a != "" {
			a = seq(tc.a)
		}
		if tc.b != "" {
			b = seq(tc.b)
		}
		if got := new(Scratch).Levenshtein(a, b); got != tc.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLevenshteinSymmetry(t *testing.T) {
	f := func(ar, br []byte) bool {
		a := bytesToSeq(ar)
		b := bytesToSeq(br)
		var s Scratch
		return s.Levenshtein(a, b) == s.Levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func bytesToSeq(raw []byte) dna.Seq {
	if len(raw) > 40 {
		raw = raw[:40]
	}
	s := make(dna.Seq, len(raw))
	for i, b := range raw {
		s[i] = dna.Base(b & 3)
	}
	return s
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	f := func(ar, br, cr []byte) bool {
		a, b, c := bytesToSeq(ar), bytesToSeq(br), bytesToSeq(cr)
		var s Scratch
		return s.Levenshtein(a, c) <= s.Levenshtein(a, b)+s.Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLevenshteinBounds(t *testing.T) {
	f := func(ar, br []byte) bool {
		a, b := bytesToSeq(ar), bytesToSeq(br)
		d := new(Scratch).Levenshtein(a, b)
		lenDiff := len(a) - len(b)
		if lenDiff < 0 {
			lenDiff = -lenDiff
		}
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		return d >= lenDiff && d <= maxLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevenshteinIdentity(t *testing.T) {
	f := func(ar []byte) bool {
		a := bytesToSeq(ar)
		return new(Scratch).Levenshtein(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWithinAgreesWithFull(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 500; trial++ {
		a := randSeq(rng, rng.Intn(30))
		b := randSeq(rng, rng.Intn(30))
		full := new(Scratch).Levenshtein(a, b)
		for k := 0; k <= 12; k++ {
			d, ok := new(Scratch).Within(a, b, k)
			if full <= k {
				if !ok || d != full {
					t.Fatalf("Within(%v,%v,%d) = (%d,%v), full = %d", a, b, k, d, ok, full)
				}
			} else if ok {
				t.Fatalf("Within(%v,%v,%d) accepted but full = %d", a, b, k, full)
			}
		}
	}
}

func TestWithinEdgeCases(t *testing.T) {
	if _, ok := new(Scratch).Within(seq("ACGT"), seq("ACGT"), -1); ok {
		t.Fatal("negative k accepted")
	}
	if d, ok := new(Scratch).Within(nil, nil, 0); !ok || d != 0 {
		t.Fatal("empty-empty should be 0")
	}
	if d, ok := new(Scratch).Within(seq("AAA"), nil, 3); !ok || d != 3 {
		t.Fatalf("got %d,%v", d, ok)
	}
	if _, ok := new(Scratch).Within(seq("AAAAAA"), nil, 3); ok {
		t.Fatal("length gap > k accepted")
	}
}

func TestAlignCostEqualsLevenshtein(t *testing.T) {
	rng := xrand.New(6)
	for trial := 0; trial < 300; trial++ {
		a := randSeq(rng, rng.Intn(25))
		b := randSeq(rng, rng.Intn(25))
		ops, cost := new(Scratch).Align(a, b)
		if want := new(Scratch).Levenshtein(a, b); cost != want {
			t.Fatalf("Align cost %d != Levenshtein %d", cost, want)
		}
		if Cost(ops) != cost {
			t.Fatalf("Cost(ops) = %d, want %d", Cost(ops), cost)
		}
	}
}

func TestAlignOpsReplayB(t *testing.T) {
	// Applying the ops to a must produce b.
	rng := xrand.New(7)
	for trial := 0; trial < 300; trial++ {
		a := randSeq(rng, rng.Intn(25))
		b := randSeq(rng, rng.Intn(25))
		ops, _ := new(Scratch).Align(a, b)
		var out dna.Seq
		i, j := 0, 0
		for _, op := range ops {
			switch op {
			case Match:
				if a[i] != b[j] {
					t.Fatal("Match op on unequal bases")
				}
				out = append(out, a[i])
				i++
				j++
			case Sub:
				if a[i] == b[j] {
					t.Fatal("Sub op on equal bases")
				}
				out = append(out, b[j])
				i++
				j++
			case Ins:
				out = append(out, b[j])
				j++
			case Del:
				i++
			}
		}
		if i != len(a) || j != len(b) {
			t.Fatalf("ops did not consume sequences fully: i=%d/%d j=%d/%d", i, len(a), j, len(b))
		}
		if !out.Equal(b) {
			t.Fatalf("replay produced %v, want %v", out, b)
		}
	}
}

func TestAlignIdenticalAllMatch(t *testing.T) {
	a := seq("ACGTACGTAC")
	ops, cost := new(Scratch).Align(a, a)
	if cost != 0 {
		t.Fatalf("cost = %d", cost)
	}
	for _, op := range ops {
		if op != Match {
			t.Fatalf("non-match op %v on identical sequences", op)
		}
	}
}

func TestOpString(t *testing.T) {
	if Match.String() != "=" || Sub.String() != "X" || Ins.String() != "I" || Del.String() != "D" {
		t.Fatal("op strings wrong")
	}
	if Op(99).String() != "?" {
		t.Fatal("unknown op string")
	}
}
