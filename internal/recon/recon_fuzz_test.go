package recon

import (
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dna"
)

// decodeFuzzCluster turns fuzz bytes into a cluster: byte 0 is the target
// length as a signed int8 (negatives exercise the degenerate guards), byte 1
// picks up to 10 reads, and each read is a length byte (mod 97) followed by
// that many bases taken from the low two bits of the next bytes. Truncated
// input yields shorter reads — empty and short reads are valid, interesting
// clusters. A byte 1 with its high bit set selects decodeNearCopyCluster
// instead.
func decodeFuzzCluster(data []byte) ([]dna.Seq, int) {
	if len(data) < 2 {
		return nil, 0
	}
	if data[1]&0x80 != 0 {
		return decodeNearCopyCluster(data)
	}
	targetLen := int(int8(data[0]))
	nReads := int(data[1] % 11)
	data = data[2:]
	reads := make([]dna.Seq, 0, nReads)
	for i := 0; i < nReads; i++ {
		if len(data) == 0 {
			break
		}
		n := int(data[0] % 97)
		data = data[1:]
		if n > len(data) {
			n = len(data)
		}
		r := make(dna.Seq, n)
		for j := 0; j < n; j++ {
			r[j] = dna.Base(data[j] & 3)
		}
		data = data[n:]
		reads = append(reads, r)
	}
	return reads, targetLen
}

// decodeNearCopyCluster decodes the near-copy mode, which models a real
// cluster: every read is one base read with a few edits. Independent random
// reads almost never agree for long, so they would leave the BMA's
// unanimous-run path unexercised. Byte 1's low seven bits pick up to 12
// reads; byte 2 (mod 97, as in the other mode) is the base read's length,
// and its bases follow packed four to a byte (bytes missing at the end of
// the input count as zero). Byte 0, as a signed int8 divided by 8, is the
// target length's offset from the base length (-16..15). Each read then
// takes one byte whose low two bits count its edits, and two bytes per
// edit: the position (mod the read's length + 1), then the kind in the low
// two bits (substitution, insertion, deletion, truncation) and the base in
// the next two.
func decodeNearCopyCluster(data []byte) ([]dna.Seq, int) {
	if len(data) < 3 {
		return nil, 0
	}
	nReads := int(data[1]&0x7f) % 13
	base := make(dna.Seq, data[2]%97)
	targetLen := len(base) + int(int8(data[0]))/8
	data = data[3:]
	for i := range base {
		if i/4 < len(data) {
			base[i] = dna.Base(data[i/4] >> (2 * (i % 4)) & 3)
		}
	}
	data = data[min(len(data), (len(base)+3)/4):]
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	reads := make([]dna.Seq, nReads)
	for i := range reads {
		r := base.Clone()
		for e := next() & 3; e > 0; e-- {
			pos := int(next()) % (len(r) + 1)
			op := next()
			b := dna.Base(op >> 2 & 3)
			switch op & 3 {
			case 0: // substitution (a no-op at the end of the read)
				if pos < len(r) {
					r[pos] = b
				}
			case 1: // insertion
				r = append(r[:pos:pos], append(dna.Seq{b}, r[pos:]...)...)
			case 2: // deletion (a no-op at the end of the read)
				if pos < len(r) {
					r = append(r[:pos:pos], r[pos+1:]...)
				}
			case 3: // truncation
				r = r[:pos]
			}
		}
		reads[i] = r
	}
	return reads, targetLen
}

// FuzzReconDispatch is the differential fuzzer pinning the reconstruction
// fast paths against their retained references on arbitrary clusters:
//
//  1. Adaptive's output is bit-identical to whichever algorithm its dispatch
//     selected — the reference BMA loop when the agreement check passed,
//     plain NW when it fell back to POA.
//  2. The windowed graph-alignment kernel produces the same consensus as the
//     exhaustive-DP kernel (SetReferenceDP).
//  3. Every ScratchReconstructor's scratch-threaded path matches its plain
//     per-call path, with one Scratch reused across all of them.
//  4. bmaForward and DoubleSidedBMA, with their unanimous-run fast path,
//     match bmaForwardRef and dbmaRef at a lookahead window of 1–5 picked
//     from the input length.
func FuzzReconDispatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x05, 0x04, 0x01, 0x02, 0x03, 0x00})
	f.Add([]byte{0x85, 0x02, 0x03, 0x01, 0x02, 0x03})
	f.Add([]byte{
		0x08, 0x03,
		0x08, 0x00, 0x01, 0x02, 0x03, 0x00, 0x01, 0x02, 0x03,
		0x08, 0x00, 0x01, 0x02, 0x03, 0x00, 0x01, 0x02, 0x03,
		0x08, 0x00, 0x01, 0x02, 0x03, 0x00, 0x01, 0x02, 0x03,
	})
	f.Add([]byte{
		0x06, 0x02,
		0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x06, 0x03, 0x03, 0x03, 0x03, 0x03, 0x03,
	})
	f.Add([]byte{0x05, 0x02, 0x02, 0x01, 0x02, 0x02, 0x03, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		reads, targetLen := decodeFuzzCluster(data)
		var sc Scratch

		got, usedPOA := Adaptive{}.reconstruct(&sc, reads, targetLen)
		var want dna.Seq
		switch {
		case usedPOA:
			want = NW{}.Reconstruct(reads, targetLen)
		case !degenerate(reads, targetLen):
			want = bmaForwardRef(new(Scratch), reads, targetLen, 3)
		}
		if !got.Equal(want) {
			t.Fatalf("adaptive (POA=%v) diverges from the selected reference\n got=%v\nwant=%v", usedPOA, got, want)
		}

		if !degenerate(reads, targetLen) {
			ref := align.NewGraph()
			ref.SetReferenceDP(true)
			refCons := ref.ConsensusOf(reads, targetLen)
			if fast := align.Consensus(reads, targetLen); !fast.Equal(refCons) {
				t.Fatalf("windowed alignment consensus diverges from DP\n got=%v\nwant=%v", fast, refCons)
			}

			w := 1 + len(data)%5
			if got, want := bmaForward(&sc, make(dna.Seq, 0, targetLen), reads, targetLen, w), bmaForwardRef(new(Scratch), reads, targetLen, w); !got.Equal(want) {
				t.Fatalf("bmaForward (w=%d) diverges from the reference\n got=%v\nwant=%v", w, got, want)
			}
			if got, want := (DoubleSidedBMA{Lookahead: w}).ReconstructScratch(&sc, reads, targetLen), dbmaRef(reads, targetLen, w); !got.Equal(want) {
				t.Fatalf("DoubleSidedBMA (w=%d) diverges from the reference\n got=%v\nwant=%v", w, got, want)
			}
		}

		for _, algo := range scratchAlgorithms {
			plain := algo.Reconstruct(reads, targetLen)
			if scr := algo.ReconstructScratch(&sc, reads, targetLen); !scr.Equal(plain) {
				t.Fatalf("%s: scratch path diverges\n got=%v\nwant=%v", algo.Name(), scr, plain)
			}
		}
	})
}
