package cluster

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// fuzzRead maps arbitrary fuzzer bytes onto valid bases, capped so the
// per-input work stays small enough for the fuzz loop.
func fuzzRead(raw []byte) dna.Seq {
	const maxLen = 300
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	s := make(dna.Seq, len(raw))
	for i, b := range raw {
		s[i] = dna.Base(b % dna.NumBases)
	}
	return s
}

// FuzzSigDistance is the differential fuzzer pinning the bit-packed
// signature kernels to the reference signature machinery: for an arbitrary
// gram set and read pair, the chain-indexed signatures must equal
// signatureScratch's, the packed q-gram presence words must equal the
// reference signature packed bit for bit, hammingPacked must equal
// gramSet.distance, and wgramDistanceWithin must honour its contract
// against gramSet.distance (exact inside the threshold band, anything
// above it outside). In QGram mode the pair also forms a two-member sweep
// cluster: its bit-planes must give B = Σ_g k_g and the mean row k_g/2 of the
// int32 signatures, and the screen must give each read, as the straggler,
// the key sweepKeyScale·|P| + (sweepKeyScale/2)·(B − 2S) with
// S = Σ_{g∈P} k_g.
func FuzzSigDistance(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT"), []byte("ACGTACCTACGTACGAACGTACGT"), uint64(1), byte(0), byte(48), byte(4), uint16(18))
	f.Add([]byte("GATTACAGATTACAGATTACA"), []byte("TTTTTTTTTTTTTTTTTTTTT"), uint64(7), byte(1), byte(24), byte(3), uint16(40))
	f.Add([]byte(""), []byte("ACGT"), uint64(3), byte(1), byte(8), byte(6), uint16(1000))
	f.Add([]byte("AAAACCCCGGGGTTTT"), []byte("AAAACCCCGGGGTTTT"), uint64(9), byte(0), byte(1), byte(1), uint16(0))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, seed uint64, modeB, countB, qB byte, thetaB uint16) {
		a, b := fuzzRead(rawA), fuzzRead(rawB)
		mode := QGram
		if modeB&1 == 1 {
			mode = WGram
		}
		count := 1 + int(countB)%96
		q := 1 + int(qB)%maxRollingQ
		gs := newGramSet(xrand.Derive(seed, 1), mode, count, q)

		var sc sigScratch
		refA := append([]int32(nil), gs.signatureScratch(a, &sc)...)
		refB := append([]int32(nil), gs.signatureScratch(b, &sc)...)

		var gi gramIndex
		gi.build(gs)
		gotA := make([]int32, count)
		gotB := make([]int32, count)
		gi.signatureInto(gs, a, gotA)
		gi.signatureInto(gs, b, gotB)
		if !reflect.DeepEqual(gotA, refA) || !reflect.DeepEqual(gotB, refB) {
			t.Fatalf("signatureInto diverges from signatureScratch (mode %v, count %d, q %d)", mode, count, q)
		}

		refD := gs.distance(refA, refB)
		if mode == QGram {
			packedA := make([]uint64, sigWords(count))
			packedB := make([]uint64, sigWords(count))
			gi.qsigBitsInto(gs, a, packedA)
			gi.qsigBitsInto(gs, b, packedB)
			wantA := make([]uint64, sigWords(count))
			wantB := make([]uint64, sigWords(count))
			packQSig(refA, wantA)
			packQSig(refB, wantB)
			if !reflect.DeepEqual(packedA, wantA) || !reflect.DeepEqual(packedB, wantB) {
				t.Fatalf("qsigBitsInto diverges from packed reference signature")
			}
			if got := hammingPacked(packedA, packedB); got != refD {
				t.Fatalf("hammingPacked = %d, gramSet.distance = %d", got, refD)
			}

			var row planeRow
			var memberA, memberB [sweepWords]uint64
			copy(memberA[:], packedA)
			copy(memberB[:], packedB)
			addPlanes(&row, &memberA)
			addPlanes(&row, &memberB)
			mean := make([]float32, count)
			B := int(planesMeanRow(&row, 2, mean))
			sumK := 0
			for g := range refA {
				kg := refA[g] + refB[g]
				sumK += int(kg)
				if mean[g] != float32(kg)/2 {
					t.Fatalf("planes mean at gram %d = %v, signatures give %d/2", g, mean[g], kg)
				}
			}
			if B != sumK {
				t.Fatalf("planes B = %d, signatures sum %d", B, sumK)
			}
			for _, ref := range [][]int32{refA, refB} {
				P, S := 0, 0
				for g, v := range ref {
					if v != 0 {
						P++
						S += int(refA[g] + refB[g])
					}
				}
				var pres [sweepWords]uint64
				if got := packPresence(ref, &pres); got != P {
					t.Fatalf("packPresence counts %d grams, the signature holds %d", got, P)
				}
				key := make([]float32, 1)
				screenPlanes(&pres, P, []planeRow{row}, []int32{int32(B)}, []int32{sweepKeyScale / 2}, []bool{true}, key)
				if want := sweepKeyScale*P + sweepKeyScale/2*(B-2*S); key[0] != float32(want) {
					t.Fatalf("screen key %v, signatures give %d (|P| = %d, B = %d, S = %d)", key[0], want, P, B, S)
				}
			}
			return
		}
		thetaHigh := int(thetaB)
		got := wgramDistanceWithin(refA, refB, thetaHigh)
		if refD <= thetaHigh {
			if got != refD {
				t.Fatalf("wgramDistanceWithin(th=%d) = %d inside band, reference %d", thetaHigh, got, refD)
			}
		} else if got <= thetaHigh {
			t.Fatalf("wgramDistanceWithin(th=%d) = %d <= th, reference %d", thetaHigh, got, refD)
		}
		// Degenerate band (thetaHigh >= WGramFar): the kernel must be exact
		// everywhere, not merely above/below the threshold.
		if got := wgramDistanceWithin(refA, refB, WGramFar+1); got != refD {
			t.Fatalf("wgramDistanceWithin(th>WGramFar) = %d, reference %d", got, refD)
		}
	})
}

// fuzzPool decodes a fuzzer input into clustering options and a pool of up
// to 40 reads of 0–40 bases. The first byte picks the signature mode (bit
// 0), turns the straggler sweep off (bit 1) and picks GramLen from the rest:
// 0..maxRollingQ, or maxRollingQ+1, which ClusterContext must reject. Each
// read is a header byte — its length, mod 41, in the low six bits and up to
// three identical copies in the top two — followed by its bases.
func fuzzPool(data []byte) (Options, []dna.Seq) {
	if len(data) == 0 {
		return Options{}, nil
	}
	flags := data[0]
	o := Options{
		Mode:             SignatureMode(flags & 1),
		NoStragglerSweep: flags&2 != 0,
		GramLen:          int(flags>>2) % (maxRollingQ + 2),
		Seed:             uint64(flags),
	}
	var reads []dna.Seq
	for rest := data[1:]; len(rest) > 0 && len(reads) < 40; {
		h := rest[0]
		n := min(int(h&63)%41, len(rest)-1)
		r := fuzzRead(rest[1 : 1+n])
		rest = rest[1+n:]
		for c := 0; c <= int(h>>6) && len(reads) < 40; c++ {
			reads = append(reads, r)
		}
	}
	return o, reads
}

// FuzzClusterReads drives ClusterContext with degenerate pools: empty reads,
// reads shorter than the gram length, runs of identical reads. An
// out-of-range GramLen must give exactly ErrOptions; any other input must
// give a partition of the reads (each once, clusters ascending, ordered by
// first member), the same partition and work counters at 1 and 2 workers.
func FuzzClusterReads(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0, 1, 2, 3, 0})
	f.Add([]byte{0x01, 0xc3, 1, 2, 3, 0x00, 0x82, 3, 3})
	f.Add([]byte{0x22, 0xca, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 0xca, 0, 1, 2, 3, 0, 1, 2, 3, 0, 2})
	f.Add([]byte{0x13, 0x28, 0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{0x24, 0x04, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, reads := fuzzPool(data)
		if len(reads) == 0 {
			return
		}
		var first Result
		for _, workers := range []int{1, 2} {
			o.Workers = workers
			res, err := ClusterContext(context.Background(), reads, o)
			if o.GramLen > maxRollingQ {
				if !errors.Is(err, ErrOptions) {
					t.Fatalf("GramLen %d: err = %v, want ErrOptions", o.GramLen, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			seen := make([]bool, len(reads))
			for c, members := range res.Clusters {
				if len(members) == 0 || (c > 0 && members[0] <= res.Clusters[c-1][0]) {
					t.Fatalf("workers %d: cluster %d %v is empty or out of order", workers, c, members)
				}
				for k, r := range members {
					if r < 0 || r >= len(reads) || seen[r] || (k > 0 && r <= members[k-1]) {
						t.Fatalf("workers %d: cluster %d %v repeats, misorders or invents a read", workers, c, members)
					}
					seen[r] = true
				}
			}
			for r, ok := range seen {
				if !ok {
					t.Fatalf("workers %d: read %d is in no cluster", workers, r)
				}
			}
			res.Stats.SignatureTime, res.Stats.ClusterTime = 0, 0
			if workers == 1 {
				first = res
			} else if !reflect.DeepEqual(res, first) {
				t.Fatalf("2 workers gave %+v, 1 worker %+v", res, first)
			}
		}
	})
}
