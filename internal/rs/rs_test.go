package rs

import (
	"bytes"
	"testing"
	"testing/quick"

	"dnastore/internal/gf256"
	"dnastore/internal/xrand"
)

func mustCode(t *testing.T, n, k int) *Code {
	t.Helper()
	c, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := [][2]int{{255, 255}, {10, 0}, {10, 10}, {10, 11}, {256, 100}, {0, 0}}
	for _, p := range bad {
		if _, err := New(p[0], p[1]); err == nil {
			t.Errorf("New(%d,%d) accepted", p[0], p[1])
		}
	}
	if _, err := New(255, 223); err != nil {
		t.Errorf("New(255,223) rejected: %v", err)
	}
}

func TestEncodeSystematic(t *testing.T) {
	c := mustCode(t, 20, 12)
	data := []byte("hello, world")
	cw, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != 20 {
		t.Fatalf("codeword len = %d", len(cw))
	}
	if !bytes.Equal(cw[:12], data) {
		t.Fatal("code is not systematic")
	}
}

func TestEncodeWrongLength(t *testing.T) {
	c := mustCode(t, 20, 12)
	if _, err := c.Encode(make([]byte, 11)); err == nil {
		t.Fatal("short data accepted")
	}
}

func TestDecodeCleanCodeword(t *testing.T) {
	c := mustCode(t, 30, 20)
	data := make([]byte, 20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	cw, _ := c.Encode(data)
	got, _, err := c.Decode(cw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("clean decode mismatch")
	}
}

func TestDecodeWrongLength(t *testing.T) {
	c := mustCode(t, 30, 20)
	if _, _, err := c.Decode(make([]byte, 29), nil); err == nil {
		t.Fatal("wrong length accepted")
	}
}

func TestDecodeBadErasureIndex(t *testing.T) {
	c := mustCode(t, 30, 20)
	cw, _ := c.Encode(make([]byte, 20))
	if _, _, err := c.Decode(cw, []int{30}); err == nil {
		t.Fatal("out-of-range erasure accepted")
	}
	if _, _, err := c.Decode(cw, []int{-1}); err == nil {
		t.Fatal("negative erasure accepted")
	}
}

// refMul multiplies through discrete logs, independently of the product
// table the code's rows come from.
func refMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gf256.Exp(gf256.Log(a) + gf256.Log(b))
}

// refSyndromes evaluates the received word at α^0..α^(nsym-1) by Horner's
// rule over refMul.
func refSyndromes(cw []byte, nsym int) []byte {
	synd := make([]byte, nsym)
	for j := range synd {
		x := gf256.Exp(j)
		for _, v := range cw {
			synd[j] = refMul(synd[j], x) ^ v
		}
	}
	return synd
}

func TestSyndromesMatchHorner(t *testing.T) {
	rng := xrand.New(21)
	for _, p := range [][2]int{{48, 36}, {150, 120}} {
		c := mustCode(t, p[0], p[1])
		nsym := p[0] - p[1]
		synd := make([]byte, nsym)
		word := make([]byte, p[0])
		for trial := 0; trial < 2000; trial++ {
			for i := range word {
				word[i] = byte(rng.Intn(256))
			}
			if trial%2 == 0 {
				// Half the words are codewords, whose syndromes are zero.
				cw, _ := c.Encode(word[:p[1]])
				copy(word, cw)
			}
			want := refSyndromes(word, nsym)
			clean := c.syndromes(word, synd)
			if !bytes.Equal(synd, want) {
				t.Fatalf("(%d,%d) trial %d: syndromes %x, Horner %x", p[0], p[1], trial, synd, want)
			}
			if clean != bytes.Equal(want, make([]byte, nsym)) {
				t.Fatalf("(%d,%d) trial %d: clean = %v for syndromes %x", p[0], p[1], trial, clean, want)
			}
			if trial%2 == 0 && !clean {
				t.Fatalf("(%d,%d) trial %d: Encode produced a word with syndromes %x", p[0], p[1], trial, want)
			}
		}
	}
}

func corrupt(rng *xrand.RNG, cw []byte, positions []int) {
	for _, p := range positions {
		old := cw[p]
		for {
			v := byte(rng.Intn(256))
			if v != old {
				cw[p] = v
				break
			}
		}
	}
}

func distinctPositions(rng *xrand.RNG, n, count int) []int {
	perm := rng.Perm(n)
	return perm[:count]
}

func TestCorrectsMaxErrors(t *testing.T) {
	rng := xrand.New(1)
	c := mustCode(t, 40, 24) // t = 8
	data := make([]byte, 24)
	for trial := 0; trial < 200; trial++ {
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		cw, _ := c.Encode(data)
		corrupt(rng, cw, distinctPositions(rng, 40, 8))
		got, _, err := c.Decode(cw, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: wrong data", trial)
		}
	}
}

func TestCorrectsMaxErasures(t *testing.T) {
	rng := xrand.New(2)
	c := mustCode(t, 40, 24) // 16 parity → 16 erasures
	data := make([]byte, 24)
	for trial := 0; trial < 100; trial++ {
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		cw, _ := c.Encode(data)
		er := distinctPositions(rng, 40, 16)
		corrupt(rng, cw, er)
		got, _, err := c.Decode(cw, er)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: wrong data", trial)
		}
	}
}

func TestCorrectsMixedErrorsAndErasures(t *testing.T) {
	rng := xrand.New(3)
	c := mustCode(t, 60, 40) // 20 parity: e.g. 6 errors + 8 erasures (2*6+8=20)
	data := make([]byte, 40)
	for trial := 0; trial < 100; trial++ {
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		cw, _ := c.Encode(data)
		pos := distinctPositions(rng, 60, 14)
		erasures := pos[:8]
		errorsPos := pos[8:]
		corrupt(rng, cw, erasures)
		corrupt(rng, cw, errorsPos)
		got, _, err := c.Decode(cw, erasures)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: wrong data", trial)
		}
	}
}

func TestErasedButCorrectSymbols(t *testing.T) {
	// Declaring erasures at positions that happen to be correct must still
	// decode (the magnitude is simply zero).
	c := mustCode(t, 30, 20)
	data := []byte("twenty data bytes!!!")
	cw, _ := c.Encode(data)
	got, _, err := c.Decode(cw, []int{0, 5, 29})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestDecodeCorrectedCount(t *testing.T) {
	// The count Decode returns is what the codec reports as corrected
	// symbols: non-erased positions it changed. Erased symbols arrive
	// zeroed, as the codec fills them, and never count, whether their
	// magnitude is non-zero or, for a true value of 0, zero.
	data := []byte("thirty-six data symbols of a volume!")
	data[3] = 0
	cases := []struct {
		name             string
		erasures, errors []int
	}{
		{"clean", nil, nil},
		{"errors only", nil, []int{0, 17, 40, 47}},
		{"erasures only", []int{1, 9, 36, 44}, nil},
		{"erased zero symbol", []int{3}, nil},
		{"erased zero symbol and errors", []int{3, 20}, []int{30, 31}},
		{"2e+f = n-k", []int{2, 11, 38, 45}, []int{5, 23, 39, 46}},
		{"f = n-k", []int{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44}, nil},
	}
	c := mustCode(t, 48, 36)
	cw, _ := c.Encode(data)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			received := append([]byte(nil), cw...)
			for _, p := range tc.erasures {
				received[p] = 0
			}
			for _, p := range tc.errors {
				received[p] ^= 0x81
			}
			got, corrected, err := c.Decode(received, tc.erasures)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("wrong data")
			}
			if corrected != len(tc.errors) {
				t.Fatalf("corrected = %d, want %d", corrected, len(tc.errors))
			}
			if want := reencodeCount(t, c, got, received, tc.erasures); corrected != want {
				t.Fatalf("corrected = %d, re-encode differs at %d", corrected, want)
			}
		})
	}
}

func TestRejectsTooManyErrors(t *testing.T) {
	rng := xrand.New(4)
	c := mustCode(t, 20, 16) // t = 2
	data := make([]byte, 16)
	failures := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		cw, _ := c.Encode(data)
		corrupt(rng, cw, distinctPositions(rng, 20, 6))
		got, _, err := c.Decode(cw, nil)
		if err != nil {
			failures++
		} else if !bytes.Equal(got, data) {
			// Miscorrection to a different valid codeword is possible but
			// must be rare; count it as detected-by-caller here.
			failures++
		}
	}
	if failures < trials*95/100 {
		t.Fatalf("only %d/%d overloaded codewords rejected or miscorrected-visibly", failures, trials)
	}
}

func TestRejectsTooManyErasures(t *testing.T) {
	c := mustCode(t, 20, 16)
	cw, _ := c.Encode(make([]byte, 16))
	if _, _, err := c.Decode(cw, []int{0, 1, 2, 3, 4}); err != ErrTooManyErrors {
		t.Fatalf("got %v, want ErrTooManyErrors", err)
	}
}

func TestDecodeDoesNotMutateInput(t *testing.T) {
	c := mustCode(t, 20, 12)
	cw, _ := c.Encode([]byte("abcdefghijkl"))
	cw[3] ^= 0xFF
	snapshot := append([]byte(nil), cw...)
	if _, _, err := c.Decode(cw, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw, snapshot) {
		t.Fatal("Decode mutated its input")
	}
}

func TestQuickRoundTripRandomNoise(t *testing.T) {
	c := mustCode(t, 48, 32) // t = 8
	rng := xrand.New(99)
	f := func(seed uint64, rawData []byte) bool {
		data := make([]byte, 32)
		copy(data, rawData)
		cw, err := c.Encode(data)
		if err != nil {
			return false
		}
		r := xrand.New(seed)
		nErr := r.Intn(9) // 0..8
		corrupt(rng, cw, distinctPositions(r, 48, nErr))
		got, _, err := c.Decode(cw, nil)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestManyParameterSets(t *testing.T) {
	rng := xrand.New(7)
	params := [][2]int{{255, 223}, {255, 239}, {100, 80}, {15, 9}, {5, 1}, {3, 1}}
	for _, p := range params {
		n, k := p[0], p[1]
		c := mustCode(t, n, k)
		data := make([]byte, k)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		cw, _ := c.Encode(data)
		tCap := (n - k) / 2
		corrupt(rng, cw, distinctPositions(rng, n, tCap))
		got, _, err := c.Decode(cw, nil)
		if err != nil {
			t.Errorf("(%d,%d): %v", n, k, err)
			continue
		}
		if !bytes.Equal(got, data) {
			t.Errorf("(%d,%d): wrong data", n, k)
		}
	}
}

func TestAllZeroAndAllFFData(t *testing.T) {
	c := mustCode(t, 32, 16)
	for _, fill := range []byte{0x00, 0xFF} {
		data := bytes.Repeat([]byte{fill}, 16)
		cw, _ := c.Encode(data)
		rng := xrand.New(uint64(fill) + 1)
		corrupt(rng, cw, distinctPositions(rng, 32, 8))
		got, _, err := c.Decode(cw, nil)
		if err != nil {
			t.Fatalf("fill %#x: %v", fill, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("fill %#x: mismatch", fill)
		}
	}
}

func BenchmarkEncode255_223(b *testing.B) {
	c, _ := New(255, 223)
	data := make([]byte, 223)
	b.SetBytes(223)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeClean48_36 decodes clean codewords of the stream
// workload's (48, 36) code, the decoder's common case: the copy and the
// syndromes, nothing else.
func BenchmarkDecodeClean48_36(b *testing.B) {
	c, _ := New(48, 36)
	rng := xrand.New(1)
	data := make([]byte, 36)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	cw, _ := c.Encode(data)
	b.SetBytes(48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Decode(cw, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode255_223_8Errors(b *testing.B) {
	c, _ := New(255, 223)
	rng := xrand.New(1)
	data := make([]byte, 223)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	clean, _ := c.Encode(data)
	cw := append([]byte(nil), clean...)
	corrupt(rng, cw, distinctPositions(rng, 255, 8))
	b.SetBytes(255)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Decode(cw, nil); err != nil {
			b.Fatal(err)
		}
	}
}
