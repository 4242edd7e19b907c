package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// The digests below are SHA-256 sums of absolute output bytes at fixed
// seeds. The determinism tests compare runs of one build with each other, so
// a kernel rewrite that changes every run the same way passes them; these
// fail on the first read, codeword or report count that moves.
const (
	simReadsDigest      = "d5c395167236fab1875ee612388ecd0f2b07d68d35f4a543115519ccdaf982d3"
	volumeStrandsDigest = "71ebf440a9d105aaf0e4c6aad99ed88597d552d2f38742820495beb80e7ab8ba"
	volumeReportDigest  = "55a9afc687de3de8b9e3d9999a3fe3bfb4c0b77f563ba3fefbb4a72738d92113"
)

// digestCodec is stream-roundtrip's codec geometry: (48, 36) Reed–Solomon
// over 120-byte payloads, 492-nt strands with a 12-base index.
func digestCodec(t *testing.T) *codec.Codec {
	t.Helper()
	c, err := codec.NewCodec(codec.Params{N: 48, K: 36, PayloadBytes: 120, IndexBases: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkDigest(t *testing.T, what string, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s digest = %s, want %s", what, got, want)
	}
}

func writeSeq(h hash.Hash, s dna.Seq) {
	h.Write([]byte(s.String()))
	h.Write([]byte{'\n'})
}

func TestSimulatedReadsDigest(t *testing.T) {
	rng := xrand.New(5)
	strands := make([]dna.Seq, 200)
	for i := range strands {
		strands[i] = dna.Random(rng, 492)
	}
	reads, err := sim.SimulatePoolContext(context.Background(), strands, sim.Options{
		Channel: sim.CalibratedIID(0.001), Coverage: sim.FixedCoverage(3), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 600 {
		t.Fatalf("got %d reads, want 600", len(reads))
	}
	h := sha256.New()
	for _, r := range reads {
		fmt.Fprintf(h, "%d ", r.Origin)
		writeSeq(h, r.Seq)
	}
	checkDigest(t, "SimulatePoolContext reads", h, simReadsDigest)
}

func TestEncodedVolumeDigest(t *testing.T) {
	const volumeBytes = 16 << 10
	data := make([]byte, volumeBytes)
	xrand.Keystream(3, data)
	strands, err := digestCodec(t).EncodeVolume(0, volumeBytes, data)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range strands {
		writeSeq(h, s)
	}
	checkDigest(t, "EncodeVolume strands", h, volumeStrandsDigest)
}

func TestVolumeReportDigest(t *testing.T) {
	// A 0.3 % channel with 2 % strand dropout at coverage 3 leaves consensus
	// errors for the outer code to correct and lost molecules for it to
	// fill as erasures, so the report exercises both decoder paths.
	const volumeBytes = 16 << 10
	p := New(digestCodec(t),
		sim.Options{Channel: sim.CalibratedIID(0.003), Coverage: sim.FixedCoverage(3), Dropout: 0.02, Seed: 1},
		cluster.Options{Seed: 9, Rounds: 6, NoStragglerSweep: true, GramLen: 5, ThetaLow: 4, ThetaHigh: 12, EditThreshold: 40},
		recon.DoubleSidedBMA{})
	data := make([]byte, volumeBytes)
	xrand.Keystream(4, data)
	opts := StreamOptions{VolumeBytes: volumeBytes}
	var works []VolumeWork
	err := p.EncodeVolumes(context.Background(), bytes.NewReader(data), opts, func(wk VolumeWork) error {
		works = append(works, wk)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(works) != 1 {
		t.Fatalf("got %d volumes, want 1", len(works))
	}
	vr := p.DecodeVolume(context.Background(), works[0], opts)
	if vr.Err != nil {
		t.Fatal(vr.Err)
	}
	if vr.Report.CorrectedSymbols == 0 || vr.Report.ErasedSymbols == 0 {
		t.Fatalf("report %v corrects no errors or fills no erasures", vr.Report)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%v %d %d %d\n", vr.Report, vr.Outcome, vr.Reads, vr.Clusters, vr.Attempts)
	h.Write(vr.Data)
	checkDigest(t, "DecodeVolume report", h, volumeReportDigest)
}
