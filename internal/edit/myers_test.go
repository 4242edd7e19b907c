package edit

import (
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// adversarialPairs returns the shapes most likely to break a bit-vector
// kernel: block-boundary lengths (63/64/65, 127/128/129), homopolymers
// (carry chains through the whole word in the D0 addition), shifted copies
// (long diagonal runs) and maximally-distant sequences.
func adversarialPairs() [][2]dna.Seq {
	rng := xrand.New(31)
	homop := func(b dna.Base, n int) dna.Seq {
		s := make(dna.Seq, n)
		for i := range s {
			s[i] = b
		}
		return s
	}
	var pairs [][2]dna.Seq
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 192, 193, 300} {
		r := dna.Random(rng, n)
		pairs = append(pairs,
			[2]dna.Seq{r, r.Clone()},                     // identical
			[2]dna.Seq{r, r[:n-n/4]},                     // prefix (pure deletions)
			[2]dna.Seq{r, append(r[1:].Clone(), r[0])},   // rotated by one
			[2]dna.Seq{homop(dna.A, n), homop(dna.T, n)}, // all-substitution
			[2]dna.Seq{homop(dna.C, n), dna.Random(rng, n)},
			[2]dna.Seq{r, dna.Random(rng, n/2+1)}, // big length gap
		)
	}
	pairs = append(pairs, [2]dna.Seq{nil, nil}, [2]dna.Seq{nil, homop(dna.G, 70)})
	return pairs
}

// TestBitParallelMatchesDP is the core parity property: on random and
// adversarial pairs, across both the single-word and the blocked kernel,
// LevenshteinBP must equal LevenshteinDP and WithinBP must return the same
// (distance, verdict) as WithinDP for every threshold, including k around
// the true distance, k = 0 and hostile huge k. The dispatcher must agree
// with both.
func TestBitParallelMatchesDP(t *testing.T) {
	var s Scratch
	check := func(a, b dna.Seq) {
		t.Helper()
		want := s.LevenshteinDP(a, b)
		if got := s.LevenshteinBP(a, b); got != want {
			t.Fatalf("LevenshteinBP(%v,%v) = %d, DP %d", a, b, got, want)
		}
		if got := s.Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein dispatcher(%v,%v) = %d, DP %d", a, b, got, want)
		}
		for _, k := range []int{0, 1, 2, want - 1, want, want + 1, want * 2, 1 << 30} {
			if k < 0 {
				continue
			}
			wd, wok := s.WithinDP(a, b, k)
			bd, bok := s.WithinBP(a, b, k)
			if wd != bd || wok != bok {
				t.Fatalf("WithinBP(%v,%v,%d) = (%d,%v), DP (%d,%v)", a, b, k, bd, bok, wd, wok)
			}
			gd, gok := s.Within(a, b, k)
			if gd != wd || gok != wok {
				t.Fatalf("Within dispatcher(%v,%v,%d) = (%d,%v), DP (%d,%v)", a, b, k, gd, gok, wd, wok)
			}
		}
	}
	for _, p := range adversarialPairs() {
		check(p[0], p[1])
	}
	rng := xrand.New(32)
	for trial := 0; trial < 400; trial++ {
		// Lengths spread across the single-word/blocked boundary and the
		// 2/3/4-block transitions.
		a := dna.Random(rng, rng.Intn(260))
		b := dna.Random(rng, rng.Intn(260))
		if trial%2 == 0 && len(a) > 0 {
			// Related pair: mutate a lightly so distances are small and the
			// threshold sweep straddles the verdict boundary.
			b = a.Clone()
			for e := 0; e < 1+rng.Intn(8); e++ {
				b[rng.Intn(len(b))] = dna.Base(rng.Intn(4))
			}
		}
		check(a, b)
	}
}

// TestMyers128MatchesBlocked pins the unrolled two-word kernel directly
// against the general blocked kernel (the dispatcher no longer routes 65–128
// base patterns there, so TestBitParallelMatchesDP alone would stop covering
// the pair head-to-head) across the full boundary band and threshold range.
func TestMyers128MatchesBlocked(t *testing.T) {
	var s Scratch
	rng := xrand.New(34)
	for trial := 0; trial < 300; trial++ {
		m := wordBits + 1 + rng.Intn(wordBits) // 65..128
		a := dna.Random(rng, m)
		b := dna.Random(rng, rng.Intn(300))
		if trial%2 == 0 {
			b = a.Clone()
			for e := 0; e < 1+rng.Intn(10); e++ {
				b[rng.Intn(len(b))] = dna.Base(rng.Intn(4))
			}
		}
		want, _ := s.myersBlocked(a, b, -1)
		for _, k := range []int{-1, 0, 2, want - 1, want, want + 1, 1 << 20} {
			bd, bok := s.myersBlocked(a, b, k)
			ud, uok := myers128(a, b, k)
			if bd != ud || bok != uok {
				t.Fatalf("myers128(m=%d,n=%d,k=%d) = (%d,%v), blocked (%d,%v)",
					m, len(b), k, ud, uok, bd, bok)
			}
		}
	}
	ax, bx := dna.Random(rng, 100), dna.Random(rng, 110)
	if n := testing.AllocsPerRun(100, func() { myers128(ax, bx, 30) }); n > 0 {
		t.Errorf("myers128 allocates %.1f/op", n)
	}
}

// TestWithinBPNegativeK pins the prefilter parity with WithinDP.
func TestWithinBPNegativeK(t *testing.T) {
	if _, ok := new(Scratch).WithinBP(seq("ACGT"), seq("ACGT"), -1); ok {
		t.Fatal("negative k accepted")
	}
	if d, ok := new(Scratch).WithinBP(nil, nil, 0); !ok || d != 0 {
		t.Fatal("empty-empty should be (0, true)")
	}
	if d, ok := new(Scratch).WithinBP(seq("AAA"), nil, 3); !ok || d != 3 {
		t.Fatalf("got %d,%v", d, ok)
	}
	if _, ok := new(Scratch).WithinBP(seq("AAAAAA"), nil, 3); ok {
		t.Fatal("length gap > k accepted")
	}
}

// TestBitParallelStopsAllocating mirrors signatureScratch's guard for the
// new kernels: after warmup, both the single-word and the blocked path must
// allocate nothing per comparison when called through a Scratch — the PR 3
// allocation wins must not silently regress.
func TestBitParallelStopsAllocating(t *testing.T) {
	rng := xrand.New(33)
	short := dna.Random(rng, 60) // single-word kernel
	long := dna.Random(rng, 300) // 5-block kernel
	long2 := dna.Random(rng, 300)
	short2 := short.Clone()
	short2[7] ^= 1
	var s Scratch
	s.WithinBP(short, short2, 12)
	s.WithinBP(long, long2, 80)
	s.LevenshteinBP(long, long2)
	s.Within(long, long2, 80)
	for name, f := range map[string]func(){
		"WithinBP/64":            func() { s.WithinBP(short, short2, 12) },
		"WithinBP/blocked":       func() { s.WithinBP(long, long2, 80) },
		"LevenshteinBP":          func() { s.LevenshteinBP(long, long2) },
		"Within dispatcher":      func() { s.Within(long, long2, 80) },
		"Levenshtein dispatcher": func() { s.Levenshtein(long, long2) },
	} {
		if n := testing.AllocsPerRun(100, f); n > 0 {
			t.Errorf("%s allocates %.1f/op after warmup", name, n)
		}
	}
}

// TestDispatcherPicksBothKernels sanity-checks the profitability split so a
// future tweak cannot silently route everything to one family.
func TestDispatcherPicksBothKernels(t *testing.T) {
	if bpWithinProfitable(150, 150, 0) {
		t.Error("k=0 should stay on the banded DP")
	}
	if bpWithinProfitable(4, 4, 10) {
		t.Error("tiny patterns should stay on the banded DP")
	}
	if !bpWithinProfitable(150, 150, 20) {
		t.Error("wide band at read length should use bit-parallel")
	}
	if !bpWithinProfitable(64, 70, 5) {
		t.Error("single-word pattern with a real band should use bit-parallel")
	}
}

func BenchmarkWithinDP150(b *testing.B) {
	benchWithin(b, 150, func(s *Scratch, x, y dna.Seq, k int) { s.WithinDP(x, y, k) })
}
func BenchmarkWithinBP150(b *testing.B) {
	benchWithin(b, 150, func(s *Scratch, x, y dna.Seq, k int) { s.WithinBP(x, y, k) })
}
func BenchmarkWithinDP300(b *testing.B) {
	benchWithin(b, 300, func(s *Scratch, x, y dna.Seq, k int) { s.WithinDP(x, y, k) })
}
func BenchmarkWithinBP300(b *testing.B) {
	benchWithin(b, 300, func(s *Scratch, x, y dna.Seq, k int) { s.WithinBP(x, y, k) })
}

func benchWithin(b *testing.B, n int, f func(s *Scratch, x, y dna.Seq, k int)) {
	rng := xrand.New(1)
	x := dna.Random(rng, n)
	y := x.Clone()
	for e := 0; e < n/20; e++ {
		y[rng.Intn(n)] = dna.Base(rng.Intn(4))
	}
	var s Scratch
	k := n / 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(&s, x, y, k)
	}
}

func BenchmarkLevenshteinBP150(b *testing.B) {
	rng := xrand.New(1)
	x := dna.Random(rng, 150)
	y := dna.Random(rng, 150)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LevenshteinBP(x, y)
	}
}
