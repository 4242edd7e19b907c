package codec

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"

	"dnastore/internal/dna"
	"dnastore/internal/primer"
	"dnastore/internal/xrand"
)

func testParams() Params {
	return Params{N: 24, K: 16, PayloadBytes: 10, Seed: 42}
}

func mustCodec(t *testing.T, p Params) *Codec {
	t.Helper()
	c, err := NewCodec(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCodecValidation(t *testing.T) {
	cases := []Params{
		{N: 10, K: 10, PayloadBytes: 5},
		{N: 10, K: 0, PayloadBytes: 5},
		{N: 300, K: 10, PayloadBytes: 5},
		{N: 10, K: 5, PayloadBytes: 0},
		{N: 10, K: 5, PayloadBytes: 5, IndexBases: 40},
	}
	for i, p := range cases {
		if _, err := NewCodec(p); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestDefaults(t *testing.T) {
	c := mustCodec(t, testParams())
	if c.Params().IndexBases != 8 {
		t.Fatalf("IndexBases default = %d", c.Params().IndexBases)
	}
	if c.Params().Layout.Name() != "baseline" {
		t.Fatalf("Layout default = %q", c.Params().Layout.Name())
	}
}

func TestStrandLengths(t *testing.T) {
	p := testParams()
	c := mustCodec(t, p)
	if got, want := c.InnerLen(), 8+10*4; got != want {
		t.Fatalf("InnerLen = %d, want %d", got, want)
	}
	pairs, err := primer.Design(1, 1, primer.DesignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Primers = &pairs[0]
	c2 := mustCodec(t, p)
	if got, want := c2.StrandLen(), 8+10*4+40; got != want {
		t.Fatalf("StrandLen = %d, want %d", got, want)
	}
}

func TestEncodeDecodeRoundTripClean(t *testing.T) {
	c := mustCodec(t, testParams())
	data := []byte("The quick brown fox jumps over the lazy dog. 0123456789.")
	strands, err := c.EncodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(strands) != c.Molecules(len(data)) {
		t.Fatalf("got %d strands, want %d", len(strands), c.Molecules(len(data)))
	}
	for _, s := range strands {
		if len(s) != c.StrandLen() {
			t.Fatalf("strand length %d", len(s))
		}
	}
	got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("report not clean: %v", rep)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripEmptyFile(t *testing.T) {
	c := mustCodec(t, testParams())
	strands, err := c.EncodeFile(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d bytes from empty file", len(got))
	}
}

func TestRoundTripMultiUnit(t *testing.T) {
	c := mustCodec(t, testParams()) // unit = 160 data bytes
	rng := xrand.New(9)
	data := make([]byte, 1000) // several units
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	strands, err := c.EncodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-unit round trip mismatch")
	}
}

func TestShuffledStrands(t *testing.T) {
	c := mustCodec(t, testParams())
	data := []byte("order should not matter because molecules carry indexes")
	strands, _ := c.EncodeFile(data)
	rng := xrand.New(4)
	rng.Shuffle(len(strands), func(i, j int) { strands[i], strands[j] = strands[j], strands[i] })
	got, _, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("shuffled decode mismatch")
	}
}

func TestErasureTolerance(t *testing.T) {
	c := mustCodec(t, testParams()) // N-K = 8 erasures per unit tolerated
	data := bytes.Repeat([]byte("erasures!"), 30)
	strands, _ := c.EncodeFile(data)
	// Drop 8 molecules of the first unit.
	kept := append([]dna.Seq(nil), strands[8:]...)
	got, rep, err := c.DecodeFileContext(context.Background(), kept, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissingColumns != 8 {
		t.Fatalf("MissingColumns = %d", rep.MissingColumns)
	}
	if !rep.Clean() || !bytes.Equal(got, data) {
		t.Fatalf("erasure decode failed: %v", rep)
	}
}

func TestTooManyErasuresBestEffort(t *testing.T) {
	c := mustCodec(t, testParams())
	data := bytes.Repeat([]byte{0xAB}, 300) // 2 units
	strands, _ := c.EncodeFile(data)
	// Drop 9 > N-K molecules from unit 1; the header (unit 0) stays intact.
	kept := append(append([]dna.Seq(nil), strands[:24]...), strands[33:]...)
	got, rep, err := c.DecodeFileContext(context.Background(), kept, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("report should record failed codewords")
	}
	if len(got) != len(data) {
		t.Fatalf("best-effort length = %d, want %d", len(got), len(data))
	}
}

func TestHeaderUnitDestroyedIsError(t *testing.T) {
	c := mustCodec(t, testParams())
	data := bytes.Repeat([]byte{0xAB}, 300)
	strands, _ := c.EncodeFile(data)
	// Losing more than N-K molecules of unit 0 corrupts the length header,
	// which must surface as an explicit error, not silent truncation.
	if _, rep, err := c.DecodeFileContext(context.Background(), strands[9:], DecodeOptions{}); err == nil && rep.Clean() {
		t.Fatal("destroyed header unit decoded cleanly")
	}
}

func TestSubstitutionErrorsCorrected(t *testing.T) {
	c := mustCodec(t, testParams()) // corrects 4 errors per codeword
	data := bytes.Repeat([]byte("substitution"), 20)
	strands, _ := c.EncodeFile(data)
	// Corrupt one payload base in 4 different strands of unit 0: each hits a
	// different codeword (or the same — either way within capability).
	for i := 0; i < 4; i++ {
		s := strands[i]
		pos := len(s) - 1 - i*4 // inside payload (no primers configured)
		s[pos] ^= 1
	}
	got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || !bytes.Equal(got, data) {
		t.Fatalf("substitution decode failed: %v", rep)
	}
	if rep.CorrectedSymbols == 0 {
		t.Fatal("corrected symbols not reported")
	}
}

func TestDuplicateStrandsIgnored(t *testing.T) {
	c := mustCodec(t, testParams())
	data := []byte("duplicates are fine")
	strands, _ := c.EncodeFile(data)
	strands = append(strands, strands[0].Clone(), strands[3].Clone())
	got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicateIndex != 2 {
		t.Fatalf("DuplicateIndex = %d", rep.DuplicateIndex)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch with duplicates")
	}
}

func TestWrongLengthStrandTreatedAsErasure(t *testing.T) {
	c := mustCodec(t, testParams())
	data := []byte("length police")
	strands, _ := c.EncodeFile(data)
	strands[5] = strands[5][:len(strands[5])-3]
	got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnparsableStrand != 1 || rep.MissingColumns != 1 {
		t.Fatalf("report = %v", rep)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestDecodeNoStrands(t *testing.T) {
	c := mustCodec(t, testParams())
	if _, _, err := c.DecodeFileContext(context.Background(), nil, DecodeOptions{}); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestScrambledStrandsLookRandom(t *testing.T) {
	c := mustCodec(t, testParams())
	data := bytes.Repeat([]byte{0x00}, 160) // worst case: all zeros
	strands, _ := c.EncodeFile(data)
	for i, s := range strands {
		if s.MaxHomopolymer() > 12 {
			t.Fatalf("strand %d has homopolymer run %d despite scrambling", i, s.MaxHomopolymer())
		}
	}
	// GC content averaged across strands should be near 0.5.
	var gc float64
	for _, s := range strands {
		gc += s.GCContent()
	}
	gc /= float64(len(strands))
	if gc < 0.42 || gc > 0.58 {
		t.Fatalf("mean GC content %v far from balanced", gc)
	}
}

func TestIndexesUniqueAndDense(t *testing.T) {
	c := mustCodec(t, testParams())
	data := make([]byte, 500)
	strands, _ := c.EncodeFile(data)
	seen := map[uint64]bool{}
	for _, s := range strands {
		idx, _, err := c.ParseStrand(s)
		if err != nil {
			t.Fatal(err)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
	for i := 0; i < len(strands); i++ {
		if !seen[uint64(i)] {
			t.Fatalf("index %d missing", i)
		}
	}
}

func TestGiniRoundTrip(t *testing.T) {
	p := testParams()
	p.Layout = GiniLayout{}
	c := mustCodec(t, p)
	data := bytes.Repeat([]byte("gini layout"), 25)
	strands, _ := c.EncodeFile(data)
	got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil || !rep.Clean() || !bytes.Equal(got, data) {
		t.Fatalf("gini round trip failed: %v %v", rep, err)
	}
}

func TestGiniErasures(t *testing.T) {
	p := testParams()
	p.Layout = GiniLayout{}
	c := mustCodec(t, p)
	data := bytes.Repeat([]byte{7}, 400)
	strands, _ := c.EncodeFile(data)
	got, rep, err := c.DecodeFileContext(context.Background(), strands[8:], DecodeOptions{}) // max erasures in unit 0
	if err != nil || !rep.Clean() || !bytes.Equal(got, data) {
		t.Fatalf("gini erasure decode failed: %v %v", rep, err)
	}
}

func TestGiniLayoutIsBijection(t *testing.T) {
	rows, n := 10, 24
	for _, layout := range []Layout{BaselineLayout{}, GiniLayout{}} {
		seen := map[[2]int]bool{}
		for cw := 0; cw < rows; cw++ {
			for j := 0; j < n; j++ {
				col, row := layout.Cell(cw, j, rows)
				if col != j {
					t.Fatalf("%s: symbol %d mapped to column %d", layout.Name(), j, col)
				}
				if row < 0 || row >= rows {
					t.Fatalf("%s: row %d out of range", layout.Name(), row)
				}
				key := [2]int{col, row}
				if seen[key] {
					t.Fatalf("%s: cell %v reused", layout.Name(), key)
				}
				seen[key] = true
			}
		}
		if len(seen) != rows*n {
			t.Fatalf("%s: %d cells covered, want %d", layout.Name(), len(seen), rows*n)
		}
	}
}

func TestGiniSpreadsRows(t *testing.T) {
	// Each Gini codeword must touch every row roughly evenly, unlike the
	// baseline where codeword i touches only row i.
	rows, n := 10, 24
	counts := map[int]int{}
	for j := 0; j < n; j++ {
		_, row := (GiniLayout{}).Cell(3, j, rows)
		counts[row]++
	}
	if len(counts) != rows {
		t.Fatalf("gini codeword touches %d distinct rows, want %d", len(counts), rows)
	}
}

func TestPrimersRoundTrip(t *testing.T) {
	pairs, err := primer.Design(2, 1, primer.DesignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Primers = &pairs[0]
	c := mustCodec(t, p)
	data := []byte("with primers attached")
	strands, _ := c.EncodeFile(data)
	for _, s := range strands {
		if !s[:20].Equal(pairs[0].Forward) {
			t.Fatal("forward primer missing")
		}
		if !s[len(s)-20:].Equal(pairs[0].Reverse) {
			t.Fatal("reverse primer missing")
		}
	}
	got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil || !rep.Clean() || !bytes.Equal(got, data) {
		t.Fatalf("primer round trip failed: %v %v", rep, err)
	}
}

func TestMapperPermuteRoundTrip(t *testing.T) {
	profile := []float64{0.1, 0.5, 0.2, 0.9, 0.05, 0.3, 0.15, 0.4, 0.6, 0.7}
	m := NewMapper(profile, func(i int) int { return i % 7 })
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		data := make([]byte, 160)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		unit := rng.Intn(5)
		p := m.Permute(unit, data)
		back := m.Unpermute(unit, p)
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapperPlacesImportantBytesOnReliableRows(t *testing.T) {
	rows := 4
	profile := []float64{0.5, 0.01, 0.9, 0.2} // row 1 most reliable
	// Byte 0 is the single most important byte.
	prio := func(i int) int { return i }
	m := NewMapper(profile, prio)
	data := make([]byte, 16) // 4 columns × 4 rows
	for i := range data {
		data[i] = byte(i)
	}
	p := m.Permute(0, data)
	// The most reliable position is the first column's row 1 (position 1).
	if p[1] != 0 {
		t.Fatalf("most important byte landed at value %d in the most reliable slot", p[1])
	}
	// The least reliable row (2) in the last column should hold one of the
	// least important bytes.
	if p[2*1+0*rows] == 0 {
		t.Fatal("important byte on unreliable row")
	}
}

func TestMapperCodecRoundTrip(t *testing.T) {
	p := testParams()
	profile := make([]float64, p.PayloadBytes)
	for i := range profile {
		// middle rows least reliable, as double-sided BMA produces
		mid := float64(p.PayloadBytes) / 2
		d := float64(i) - mid
		profile[i] = 0.5 - (d*d)/(mid*mid)*0.4
	}
	p.Mapper = NewMapper(profile, func(i int) int { return i })
	c := mustCodec(t, p)
	data := bytes.Repeat([]byte("priority mapped payload"), 40)
	strands, _ := c.EncodeFile(data)
	got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
	if err != nil || !rep.Clean() || !bytes.Equal(got, data) {
		t.Fatalf("mapper round trip failed: %v %v", rep, err)
	}
}

func TestMapperProfileLengthValidated(t *testing.T) {
	p := testParams()
	p.Mapper = NewMapper([]float64{0.1, 0.2}, nil)
	if _, err := NewCodec(p); err == nil {
		t.Fatal("mismatched profile length accepted")
	}
}

func TestSortByIndex(t *testing.T) {
	c := mustCodec(t, testParams())
	strands, _ := c.EncodeFile([]byte("sortable"))
	rng := xrand.New(10)
	rng.Shuffle(len(strands), func(i, j int) { strands[i], strands[j] = strands[j], strands[i] })
	c.SortByIndex(strands)
	for i, s := range strands {
		idx, _, err := c.ParseStrand(s)
		if err != nil {
			t.Fatal(err)
		}
		if idx != uint64(i) {
			t.Fatalf("position %d has index %d", i, idx)
		}
	}
}

func TestIndexCapacityEnforced(t *testing.T) {
	p := testParams()
	p.IndexBases = 2 // only 16 molecules addressable
	c := mustCodec(t, p)
	if _, err := c.EncodeFile(make([]byte, 10000)); err == nil {
		t.Fatal("over-capacity encode accepted")
	}
}

func TestQuickRoundTripArbitraryData(t *testing.T) {
	c := mustCodec(t, testParams())
	f := func(data []byte) bool {
		strands, err := c.EncodeFile(data)
		if err != nil {
			return false
		}
		got, rep, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{})
		return err == nil && rep.Clean() && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDensity(t *testing.T) {
	c := mustCodec(t, testParams()) // N=24 K=16 PayloadBytes=10, IndexBases=8
	logical, physical := c.Density(152)
	// 152 bytes + 8 header = 160 = exactly one unit of data (16×10).
	// 24 molecules × 10 payload bytes × 4 bases = 960 payload bases.
	wantLogical := float64(8*152) / 960
	if diff := logical - wantLogical; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("logical density = %v, want %v", logical, wantLogical)
	}
	// Physical includes the 8 index bases per strand: 24 × 48 = 1152.
	wantPhysical := float64(8*152) / 1152
	if diff := physical - wantPhysical; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("physical density = %v, want %v", physical, wantPhysical)
	}
	if l, p := c.Density(0); l != 0 || p != 0 {
		t.Fatal("empty file density should be 0")
	}
	// Logical density can never exceed the 2 bits/nt unconstrained bound.
	if logical > 2 {
		t.Fatalf("logical density %v exceeds 2 bits/nt", logical)
	}
}

func BenchmarkEncodeFile64KB(b *testing.B) {
	c, err := NewCodec(Params{N: 150, K: 120, PayloadBytes: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeFile(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFile64KB(b *testing.B) {
	c, err := NewCodec(Params{N: 150, K: 120, PayloadBytes: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	strands, err := c.EncodeFile(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DecodeFileContext(context.Background(), strands, DecodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGiniWithMapperAndPrimers(t *testing.T) {
	// All three §IV features composed: Gini layout, DNAMapper and primers.
	pairs, err := primer.Design(5, 1, primer.DesignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Layout = GiniLayout{}
	p.Primers = &pairs[0]
	profile := make([]float64, p.PayloadBytes)
	for i := range profile {
		profile[i] = 0.1 + 0.05*float64(i%3)
	}
	p.Mapper = NewMapper(profile, func(i int) int { return i % 4 })
	c := mustCodec(t, p)
	data := bytes.Repeat([]byte("gini+mapper+primers"), 25)
	strands, err := c.EncodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	// Drop a few strands to exercise erasures through the composition too.
	got, rep, err := c.DecodeFileContext(context.Background(), strands[5:], DecodeOptions{})
	if err != nil || !rep.Clean() || !bytes.Equal(got, data) {
		t.Fatalf("composed decode failed: %v %v", rep, err)
	}
}
