package codec

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dnastore/internal/dna"
)

// corruptHeaderUnit returns the strands of a 3-unit file with enough of unit
// 0's molecules mangled that its Reed–Solomon codewords are uncorrectable and
// the decoded header is garbage (an implausibly huge length).
func corruptHeaderUnit(t *testing.T) (*Codec, []byte, []dna.Seq) {
	t.Helper()
	c, err := NewCodec(Params{N: 30, K: 20, PayloadBytes: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	unit := c.UnitDataBytes()
	data := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C, 0xC3}, (3*unit-8)/4)
	strands, err := c.EncodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the payload of unit 0's first 11 columns (including column 0,
	// which carries the header bytes). 11 errors per codeword exceed the
	// (N-K)/2 = 5 error-correction capability, so every codeword of unit 0
	// fails and the salvaged header bytes are descrambled garbage.
	for col := 0; col < 11; col++ {
		s := strands[col]
		for i := c.p.IndexBases; i < len(s); i++ {
			s[i] = dna.A
		}
	}
	return c, data, strands
}

func TestCorruptHeaderStrictModeFails(t *testing.T) {
	c, _, strands := corruptHeaderUnit(t)
	_, _, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if !errors.Is(err, ErrDecode) {
		t.Fatalf("err = %v, want ErrDecode", err)
	}
}

func TestBestEffortSalvagesIntactUnits(t *testing.T) {
	c, data, strands := corruptHeaderUnit(t)
	got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatalf("Partial not set: %v", rep)
	}
	if len(got) != len(data) {
		t.Fatalf("salvaged %d bytes, want %d (geometry from observed indices)", len(got), len(data))
	}
	// Unit 0 covers data bytes [0, unit-8); units 1 and 2 must be bit-exact.
	lo := c.UnitDataBytes() - 8
	if !bytes.Equal(got[lo:], data[lo:]) {
		t.Fatal("intact units corrupted in best-effort output")
	}
	damaged := rep.DamagedUnits()
	if len(damaged) != 1 || damaged[0] != 0 {
		t.Fatalf("damaged units = %v, want [0]", damaged)
	}
	for _, u := range rep.Units {
		if u.Unit == 0 && !u.Salvaged {
			t.Fatal("unit 0 not flagged as salvaged")
		}
	}
}

func TestBestEffortIgnoresPhantomUnits(t *testing.T) {
	// A single stray molecule with a huge index must not conjure phantom
	// trailing units when the geometry is reconstructed without a header.
	c, data, strands := corruptHeaderUnit(t)
	stray := append(dna.Seq(nil), strands[len(strands)-1]...)
	idx := uint64(50 * c.p.N)
	copy(stray, dna.EncodeUint(idx^c.indexMask(), c.p.IndexBases))
	strands = append(strands, stray)
	got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("salvaged %d bytes, want %d — the stray index inflated the geometry", len(got), len(data))
	}
	if rep.StrayIndex == 0 {
		t.Fatal("stray index not counted")
	}
}

func TestDecodeFileContextCancelled(t *testing.T) {
	c, _, strands := corruptHeaderUnit(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.DecodeFileContext(ctx, strands, DecodeOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
