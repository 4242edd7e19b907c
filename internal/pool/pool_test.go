package pool

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/core"
	"dnastore/internal/dna"
	"dnastore/internal/fastq"
	"dnastore/internal/primer"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
)

func designPairs(t *testing.T, n int) []primer.Pair {
	t.Helper()
	pairs, err := primer.Design(1, n, primer.DesignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func encodeFile(t *testing.T, pair *primer.Pair, data []byte) []dna.Seq {
	t.Helper()
	c, err := codec.NewCodec(codec.Params{N: 24, K: 16, PayloadBytes: 12, Seed: 9, Primers: pair})
	if err != nil {
		t.Fatal(err)
	}
	strands, err := c.EncodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	return strands
}

func TestStoreAndList(t *testing.T) {
	pairs := designPairs(t, 2)
	var p Pool
	if err := p.Store("a", pairs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Store("b", pairs[1], nil); err != nil {
		t.Fatal(err)
	}
	files := p.Files()
	if len(files) != 2 || files[0] != "a" || files[1] != "b" {
		t.Fatalf("files = %v", files)
	}
	got, err := p.Primers("b")
	if err != nil || !got.Forward.Equal(pairs[1].Forward) {
		t.Fatalf("Primers(b) = %v, %v", got, err)
	}
	if _, err := p.Primers("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreRejectsDuplicatesAndClashes(t *testing.T) {
	pairs := designPairs(t, 2)
	var p Pool
	if err := p.Store("a", pairs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Store("a", pairs[1], nil); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate accepted: %v", err)
	}
	// A pair one substitution away from a's forward primer must clash.
	near := primer.Pair{Forward: pairs[0].Forward.Clone(), Reverse: pairs[1].Reverse}
	near.Forward[0] ^= 1
	if err := p.Store("c", near, nil); !errors.Is(err, ErrPrimerClash) {
		t.Fatalf("clash accepted: %v", err)
	}
}

func TestStoreCopiesStrands(t *testing.T) {
	pairs := designPairs(t, 1)
	strands := encodeFile(t, &pairs[0], []byte("immutable"))
	var p Pool
	if err := p.Store("a", pairs[0], strands); err != nil {
		t.Fatal(err)
	}
	strands[0][0] ^= 1 // caller mutates its copy
	reads, err := p.AccessContext(context.Background(), pairs[0], PCROptions{Channel: sim.NewIIDChannel(0, 0, 0), Coverage: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if r.Origin == 0 && r.Seq.Equal(strands[0]) {
			t.Fatal("pool shares storage with the caller")
		}
	}
}

func TestAccessAmplifiesOnlyTarget(t *testing.T) {
	pairs := designPairs(t, 3)
	var p Pool
	var strandCount []int
	for i, name := range []string{"alpha", "beta", "gamma"} {
		strands := encodeFile(t, &pairs[i], bytes.Repeat([]byte{byte(i + 1)}, 100+50*i))
		if err := p.Store(name, pairs[i], strands); err != nil {
			t.Fatal(err)
		}
		strandCount = append(strandCount, len(strands))
	}
	reads, err := p.AccessContext(context.Background(), pairs[1], PCROptions{
		Channel:  sim.CalibratedIID(0.02),
		Coverage: 12,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	target, foreign := 0, 0
	for _, r := range reads {
		if r.Origin/1_000_000 == 1 {
			target++
		} else {
			foreign++
		}
	}
	if target < strandCount[1]*8 {
		t.Fatalf("target file under-amplified: %d reads for %d strands", target, strandCount[1])
	}
	if foreign > target/20 {
		t.Fatalf("poor PCR specificity: %d foreign vs %d target reads", foreign, target)
	}
}

func TestRandomAccessEndToEnd(t *testing.T) {
	// Three files in one pool; retrieve the middle one through the full
	// wetlab-data path (orientation fix + primer trim) and decode it.
	pairs := designPairs(t, 3)
	payloads := [][]byte{
		[]byte("file zero: not the one we want"),
		[]byte("file one: the target of the PCR random access"),
		[]byte("file two: also not the one we want"),
	}
	var p Pool
	for i := range payloads {
		strands := encodeFile(t, &pairs[i], payloads[i])
		if err := p.Store(string(rune('a'+i)), pairs[i], strands); err != nil {
			t.Fatal(err)
		}
	}
	reads, err := p.AccessContext(context.Background(), pairs[1], PCROptions{
		Channel:  sim.CalibratedIID(0.03),
		Coverage: 12,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// §VIII handling: orient, trim, reject foreign reads.
	records := fastq.FromReads(sim.Sequences(reads), "pcr")
	inner, stats := fastq.Preprocess(records, pairs[1], 3)
	if stats.Kept == 0 {
		t.Fatal("nothing survived preprocessing")
	}
	dec, err := codec.NewCodec(codec.Params{N: 24, K: 16, PayloadBytes: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pipe := &core.Pipeline{
		Codec:         dec,
		Simulator:     core.ReadsSource{Reads: inner},
		Clusterer:     core.OptionsClusterer{Options: cluster.Options{Seed: 7}},
		Reconstructor: core.AlgorithmReconstructor{Algorithm: recon.NW{}},
	}
	res, err := pipe.RunContext(context.Background(), nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, payloads[1]) {
		t.Fatalf("random access recovered %q, want %q (report %v)", res.Data, payloads[1], res.Report)
	}
}

func TestAccessValidation(t *testing.T) {
	var p Pool
	pairs := designPairs(t, 1)
	if _, err := p.AccessContext(context.Background(), pairs[0], PCROptions{}); err == nil {
		t.Fatal("missing channel accepted")
	}
	reads, err := p.AccessContext(context.Background(), pairs[0], PCROptions{Channel: sim.CalibratedIID(0.01)})
	if err != nil || len(reads) != 0 {
		t.Fatalf("empty pool access: %v %v", reads, err)
	}
}

func TestAccessContextCancellation(t *testing.T) {
	pairs := designPairs(t, 1)
	strands := encodeFile(t, &pairs[0], bytes.Repeat([]byte("cancellable pool"), 50))
	var p Pool
	if err := p.Store("a", pairs[0], strands); err != nil {
		t.Fatal(err)
	}
	opts := PCROptions{Channel: sim.NewIIDChannel(0, 0, 0), Coverage: 5, Seed: 3}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.AccessContext(ctx, pairs[0], opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled access returned %v, want context.Canceled", err)
	}

	// A run under a live, cancellable context must match one under
	// context.Background exactly: the context plumbing cannot perturb the
	// deterministic read stream.
	want, err := p.AccessContext(context.Background(), pairs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	got, err := p.AccessContext(live, pairs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("a cancellable context yielded %d reads, context.Background %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Seq.Equal(want[i].Seq) || got[i].Origin != want[i].Origin {
			t.Fatalf("read %d differs between a cancellable context and context.Background", i)
		}
	}
}
