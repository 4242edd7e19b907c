package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/sim"
)

// fuzzMaxReads caps the reads a FuzzDecodeVolume input becomes.
const fuzzMaxReads = 64

// fuzzReads decodes a fuzz input into reads of at most maxLen bases: a
// length byte (taken modulo maxLen+1), then one base per byte (its low two
// bits), repeated until the input or the fuzzMaxReads budget runs out. The
// input's end cuts the last read short.
func fuzzReads(raw []byte, maxLen int) []dna.Seq {
	var reads []dna.Seq
	for len(raw) > 0 && len(reads) < fuzzMaxReads {
		n := min(int(raw[0])%(maxLen+1), len(raw)-1)
		read := make(dna.Seq, n)
		for i := range read {
			read[i] = dna.Base(raw[1+i] & 3)
		}
		reads = append(reads, read)
		raw = raw[1+n:]
	}
	return reads
}

// fuzzPipeline is streamPipeline sequencing at 0.5 % error and coverage 2,
// so a one-unit volume's whole shard fits in fuzzMaxReads and still decodes.
func fuzzPipeline(t testing.TB) *Pipeline {
	p := streamPipeline(t)
	p.Simulator = PoolSimulator{Options: sim.Options{Channel: sim.CalibratedIID(0.005), Coverage: sim.FixedCoverage(2), Seed: 11}}
	return p
}

// FuzzDecodeVolume drives DecodeVolume with arbitrary read sets, reads of up
// to 2·StrandLen bases, against the shard metadata of a real one-unit
// volume. Whatever the reads, the volume must come back as a consistent
// record: no stage panic, OutcomeFailed exactly when Err is set, an archive
// region exactly Bytes long (and clean bytes that fill it exactly), and the
// identical result from a second decode of the same shard. The committed
// corpus holds the real shard's reads (which decode cleanly), no reads,
// reads shorter than the q-gram length and all-identical reads.
func FuzzDecodeVolume(f *testing.F) {
	p := fuzzPipeline(f)
	opts := StreamOptions{VolumeBytes: 40}
	var shard VolumeWork
	err := p.EncodeVolumes(context.Background(), bytes.NewReader(streamTestData(40)), opts, func(wk VolumeWork) error {
		shard = wk
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		wk := shard
		wk.Reads = fuzzReads(raw, 2*p.Codec.StrandLen())
		vr := p.DecodeVolume(context.Background(), wk, opts)
		if errors.Is(vr.Err, ErrStagePanic) {
			t.Fatalf("%d reads: %v", len(wk.Reads), vr.Err)
		}
		if (vr.Outcome == OutcomeFailed) != (vr.Err != nil) {
			t.Fatalf("outcome %v with error %v", vr.Outcome, vr.Err)
		}
		if vr.Bytes != wk.Bytes || len(vr.Output()) != wk.Bytes {
			t.Fatalf("volume of %d bytes reports %d and outputs %d", wk.Bytes, vr.Bytes, len(vr.Output()))
		}
		if vr.Outcome == OutcomeDecoded && len(vr.Data) != vr.Bytes {
			t.Fatalf("clean decode of %d bytes", len(vr.Data))
		}
		again := p.DecodeVolume(context.Background(), wk, opts)
		if !sameVolumeResult(vr, again) {
			t.Fatalf("second decode differs:\n%+v\n%+v", vr, again)
		}
	})
}

// sameVolumeResult compares two decodes of one shard, clustering's timing
// fields aside and errors by message.
func sameVolumeResult(a, b VolumeResult) bool {
	if fmt.Sprint(a.Err) != fmt.Sprint(b.Err) {
		return false
	}
	for _, v := range []*VolumeResult{&a, &b} {
		v.Err = nil
		v.ClusterStats.SignatureTime, v.ClusterStats.ClusterTime = 0, 0
	}
	return reflect.DeepEqual(a, b)
}
