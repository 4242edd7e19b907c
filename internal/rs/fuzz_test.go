package rs

import (
	"bytes"
	"errors"
	"testing"

	"dnastore/internal/xrand"
)

// reencodeCount is the oracle for Decode's correction count: the number of
// non-erased positions at which received differs from the codeword of data.
// A decode that succeeded returns exactly this count.
func reencodeCount(t *testing.T, c *Code, data, received []byte, erasures []int) int {
	t.Helper()
	full, err := c.Encode(data)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	erased := make([]bool, len(full))
	for _, e := range erasures {
		erased[e] = true
	}
	n := 0
	for j := range full {
		if !erased[j] && full[j] != received[j] {
			n++
		}
	}
	return n
}

// FuzzRSDecode drives Decode with fuzzer-chosen geometry, payloads,
// corruption and erasures. Four invariants must hold for every input:
//
//  1. Decode never panics, whatever the codeword bytes are;
//  2. a codeword with f erasures and e errors, 2e+f <= n-k, round-trips to
//     the original data;
//  3. every successful decode returns as its correction count the number
//     of non-erased positions where the received word differs from the
//     codeword of the returned data;
//  4. structurally malformed inputs fail with ErrShape, not a crash.
func FuzzRSDecode(f *testing.F) {
	f.Add([]byte("hello world"), byte(12), byte(8), byte(0), byte(0))
	f.Add([]byte{}, byte(255), byte(1), byte(7), byte(3))
	f.Add([]byte{0xff, 0x00, 0xa5}, byte(6), byte(2), byte(3), byte(200))
	f.Fuzz(func(t *testing.T, data []byte, nb, kb, mut, era byte) {
		n := 2 + int(nb)%254   // 2..255
		k := 1 + int(kb)%(n-1) // 1..n-1
		code, err := New(n, k)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", n, k, err)
		}

		payload := make([]byte, k)
		copy(payload, data)
		cw, err := code.Encode(payload)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}

		// era picks how many of the n-k parity symbols go to erasures; the
		// rest of the capability goes to as many errors as fit. Positions
		// come from a permutation seeded by the fuzz input. An erased
		// symbol is XORed with mut, which may be 0 (a zero magnitude); an
		// error is never a zero XOR.
		nsym := n - k
		numErased := int(era) % (nsym + 1)
		numErrors := (nsym - numErased) / 2
		perm := xrand.New(uint64(mut)<<8 | uint64(era)).Perm(n)
		erasures := perm[:numErased]
		corrupted := append([]byte(nil), cw...)
		for _, p := range erasures {
			corrupted[p] ^= mut
		}
		for _, p := range perm[numErased : numErased+numErrors] {
			corrupted[p] ^= mut | 1
		}
		got, corrected, err := code.Decode(corrupted, erasures)
		if err != nil {
			t.Fatalf("Decode failed within capability (n=%d k=%d, %d erasures, %d errors): %v", n, k, numErased, numErrors, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round-trip mismatch (n=%d k=%d): got %x want %x", n, k, got, payload)
		}
		if corrected != numErrors || corrected != reencodeCount(t, code, got, corrupted, erasures) {
			t.Fatalf("Decode corrected %d symbols (n=%d k=%d), want %d errors", corrected, n, k, numErrors)
		}

		// Arbitrary bytes of codeword length must never panic — any outcome
		// (data, ErrTooManyErrors) is acceptable, a crash is not — and a
		// decode that succeeds must count what it changed.
		garbage := make([]byte, n)
		copy(garbage, data)
		got, corrected, err = code.Decode(garbage, erasures)
		switch {
		case err == nil:
			if want := reencodeCount(t, code, got, garbage, erasures); corrected != want {
				t.Fatalf("Decode(garbage) corrected %d symbols, re-encode differs at %d", corrected, want)
			}
		case !errors.Is(err, ErrTooManyErrors):
			t.Fatalf("Decode(garbage) returned unexpected error class: %v", err)
		}

		// Shape violations are typed, never panics or index faults.
		if _, _, err := code.Decode(nil, nil); !errors.Is(err, ErrShape) {
			t.Fatalf("Decode(nil) = %v, want ErrShape", err)
		}
		if _, _, err := code.Decode(cw[:len(cw)-1], nil); !errors.Is(err, ErrShape) {
			t.Fatalf("Decode(short) = %v, want ErrShape", err)
		}
		if _, _, err := code.Decode(cw, []int{n}); !errors.Is(err, ErrShape) {
			t.Fatalf("Decode(erasure out of range) = %v, want ErrShape", err)
		}
		if n-k >= 2 {
			if _, _, err := code.Decode(cw, []int{0, 0}); !errors.Is(err, ErrShape) {
				t.Fatalf("Decode(duplicate erasure) = %v, want ErrShape", err)
			}
		}
	})
}
