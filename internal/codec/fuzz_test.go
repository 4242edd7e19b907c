package codec

import (
	"bytes"
	"context"
	"testing"

	"dnastore/internal/dna"
)

// fuzzGeometries are small valid codec parameter sets the fuzzer cycles
// through; all satisfy the K·PayloadBytes >= 8 header constraint NewCodec
// enforces.
var fuzzGeometries = []Params{
	{N: 6, K: 4, PayloadBytes: 2, Seed: 1},
	{N: 12, K: 8, PayloadBytes: 1, Seed: 2},
	{N: 5, K: 2, PayloadBytes: 4, Seed: 3},
	{N: 9, K: 4, PayloadBytes: 3, Seed: 4, Layout: GiniLayout{}},
}

// FuzzDecodeFile checks the file codec end to end: every payload must
// round-trip losslessly through Encode→Decode, and arbitrary garbage
// strands must produce an error or a damage report — never a panic.
func FuzzDecodeFile(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), byte(0))
	f.Add([]byte{}, byte(1))
	f.Add([]byte{0x00, 0xff, 0x80, 0x7f}, byte(2))
	f.Fuzz(func(t *testing.T, data []byte, geo byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		c, err := NewCodec(fuzzGeometries[int(geo)%len(fuzzGeometries)])
		if err != nil {
			t.Fatalf("NewCodec: %v", err)
		}

		// Lossless round trip through a clean channel.
		strands, err := c.EncodeFile(data)
		if err != nil {
			t.Fatalf("EncodeFile: %v", err)
		}
		out, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
		if err != nil {
			t.Fatalf("DecodeFileContext of clean strands: %v", err)
		}
		if rep.FailedCodewords != 0 {
			t.Fatalf("clean decode reported %d failed codewords", rep.FailedCodewords)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round-trip mismatch: %d bytes in, %d bytes out", len(data), len(out))
		}

		// Garbage strands: slice the fuzz input into pseudo-strands of
		// assorted lengths (including the real strand length, empty and
		// truncated ones). Decode may fail but must not panic, in either
		// strict or best-effort mode.
		garbage := make([]dna.Seq, 0, 8)
		lens := []int{c.StrandLen(), 0, 1, c.StrandLen() - 1, c.StrandLen() + 3, 7}
		pos := 0
		for _, n := range lens {
			s := make(dna.Seq, n)
			for i := range s {
				if pos < len(data) {
					s[i] = dna.Base(data[pos] % dna.NumBases)
					pos++
				}
			}
			garbage = append(garbage, s)
		}
		if _, _, err := c.DecodeFileContext(context.Background(), garbage, DecodeOptions{}); err == nil {
			// Fine: garbage that happens to frame is acceptable, the
			// property under test is absence of panics.
			_ = err
		}
		if _, _, err := c.DecodeFileContext(context.Background(), garbage, DecodeOptions{BestEffort: true}); err != nil {
			_ = err // best-effort may still fail; it must not crash
		}

		// Losing one molecule stays within the outer code's erasure
		// capability, so the round trip must still be lossless.
		if len(strands) > 1 {
			out2, _, err := c.DecodeFileContext(context.Background(), strands[1:], DecodeOptions{})
			if err != nil {
				t.Fatalf("DecodeFileContext with one missing strand: %v", err)
			}
			if !bytes.Equal(out2, data) {
				t.Fatalf("erasure round-trip mismatch")
			}
		}
	})
}
