package edit

import (
	"testing"

	"dnastore/internal/dna"
)

// fuzzSeq maps arbitrary fuzzer bytes onto valid bases, capped so the
// quadratic DP stays fast enough for the fuzz loop.
func fuzzSeq(raw []byte) dna.Seq {
	const maxLen = 200
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	s := make(dna.Seq, len(raw))
	for i, b := range raw {
		s[i] = dna.Base(b % dna.NumBases)
	}
	return s
}

// FuzzLevenshtein cross-checks the three edit-distance implementations on
// the same inputs: the full DP (Levenshtein), the banded early-exit variant
// (Within) and the traceback alignment (Align) must all agree, and the
// alignment must be structurally valid for the two sequences.
func FuzzLevenshtein(f *testing.F) {
	f.Add([]byte("ACGT"), []byte("ACCT"), byte(2))
	f.Add([]byte{}, []byte("TTTT"), byte(1))
	f.Add([]byte("GATTACA"), []byte("GCATGCT"), byte(10))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, kb byte) {
		a, b := fuzzSeq(rawA), fuzzSeq(rawB)
		d := new(Scratch).Levenshtein(a, b)
		if rev := new(Scratch).Levenshtein(b, a); rev != d {
			t.Fatalf("asymmetric distance: d(a,b)=%d d(b,a)=%d", d, rev)
		}

		k := int(kb)
		if got, ok := new(Scratch).Within(a, b, k); ok {
			if got != d {
				t.Fatalf("Within(k=%d) = %d, full DP says %d", k, got, d)
			}
			if got > k {
				t.Fatalf("Within(k=%d) reported ok with distance %d > k", k, got)
			}
		} else if d <= k {
			t.Fatalf("Within(k=%d) said no, full DP says %d", k, d)
		}

		ops, cost := new(Scratch).Align(a, b)
		if cost != d {
			t.Fatalf("Align cost %d != Levenshtein %d", cost, d)
		}
		if Cost(ops) != cost {
			t.Fatalf("Cost(ops) = %d != Align cost %d", Cost(ops), cost)
		}
		// Replay the op sequence against both sequences: it must consume
		// exactly len(a) and len(b) bases and only claim Match when true.
		i, j := 0, 0
		for _, op := range ops {
			switch op {
			case Match:
				if i >= len(a) || j >= len(b) || a[i] != b[j] {
					t.Fatalf("invalid Match at a[%d],b[%d]", i, j)
				}
				i++
				j++
			case Sub:
				if i >= len(a) || j >= len(b) || a[i] == b[j] {
					t.Fatalf("invalid Sub at a[%d],b[%d]", i, j)
				}
				i++
				j++
			case Ins:
				j++
			case Del:
				i++
			default:
				t.Fatalf("unknown op %v", op)
			}
		}
		if i != len(a) || j != len(b) {
			t.Fatalf("alignment consumed %d/%d and %d/%d bases", i, len(a), j, len(b))
		}
	})
}

// FuzzMyersVsDP is the differential fuzzer for the bit-parallel kernels: on
// arbitrary sequence pairs and thresholds, LevenshteinBP must equal the DP
// distance and WithinBP must return exactly WithinDP's (distance, verdict).
// k is a uint16 so the fuzzer reaches thresholds beyond any real distance
// (the kernels clamp internally); lengths up to fuzzSeq's cap cross the
// single-word/blocked boundary at 64.
func FuzzMyersVsDP(f *testing.F) {
	f.Add([]byte("ACGT"), []byte("ACCT"), uint16(2))
	f.Add([]byte{}, []byte("TTTT"), uint16(1))
	f.Add([]byte("GATTACAGATTACAGATTACAGATTACAGATTACAGATTACAGATTACAGATTACAGATTACAGATTACA"),
		[]byte("GCATGCTGCATGCTGCATGCTGCATGCTGCATGCTGCATGCTGCATGCTGCATGCTGCATGCTGCATGCT"), uint16(30))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"),
		[]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAT"), uint16(0))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, k16 uint16) {
		a, b := fuzzSeq(rawA), fuzzSeq(rawB)
		var s Scratch
		want := s.LevenshteinDP(a, b)
		if got := s.LevenshteinBP(a, b); got != want {
			t.Fatalf("LevenshteinBP = %d, DP = %d (lens %d,%d)", got, want, len(a), len(b))
		}
		k := int(k16)
		wd, wok := s.WithinDP(a, b, k)
		bd, bok := s.WithinBP(a, b, k)
		if wd != bd || wok != bok {
			t.Fatalf("WithinBP(k=%d) = (%d,%v), WithinDP = (%d,%v) (lens %d,%d)",
				k, bd, bok, wd, wok, len(a), len(b))
		}
		if gd, gok := s.Within(a, b, k); gd != wd || gok != wok {
			t.Fatalf("Within dispatcher(k=%d) = (%d,%v), DP = (%d,%v)", k, gd, gok, wd, wok)
		}
	})
}
