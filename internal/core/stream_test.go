package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// streamTestData builds a pseudo-random archive of n bytes.
func streamTestData(n int) []byte {
	rng := xrand.New(0xa11ce)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	return data
}

func streamPipeline(t testing.TB) *Pipeline {
	t.Helper()
	return New(testCodec(t, nil),
		sim.Options{Channel: sim.CalibratedIID(0.02), Coverage: sim.FixedCoverage(8), Seed: 11},
		cluster.Options{Seed: 13},
		recon.DoubleSidedBMA{})
}

func TestStreamRoundTrip(t *testing.T) {
	p := streamPipeline(t)
	data := streamTestData(2000)
	var out bytes.Buffer
	res, err := p.RunStream(context.Background(), bytes.NewReader(data), &out, StreamOptions{
		VolumeBytes: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("streamed output differs from input")
	}
	wantVolumes := codec.VolumeCount(int64(len(data)), 600)
	if len(res.Volumes) != wantVolumes {
		t.Fatalf("got %d volumes, want %d", len(res.Volumes), wantVolumes)
	}
	if res.BytesIn != int64(len(data)) || res.BytesOut != int64(len(data)) {
		t.Fatalf("BytesIn=%d BytesOut=%d, want %d", res.BytesIn, res.BytesOut, len(data))
	}
	if res.FailedVolumes != 0 {
		t.Fatalf("FailedVolumes = %d", res.FailedVolumes)
	}
	for i, v := range res.Volumes {
		if v.ID != uint32(i) {
			t.Fatalf("volume %d reported out of order as id %d", i, v.ID)
		}
		if v.Data != nil {
			t.Fatalf("volume %d retains Data after writing; StreamResult must stay O(volumes)", i)
		}
		if v.Strands == 0 || v.Reads == 0 || v.Clusters == 0 {
			t.Fatalf("volume %d missing intermediates: %+v", i, v)
		}
	}
}

func TestStreamDeterministicAcrossSchedules(t *testing.T) {
	// The headline guarantee: identical bytes and identical per-volume
	// telemetry at any worker count and in-flight depth.
	p := streamPipeline(t)
	data := streamTestData(2750) // 5 volumes, last one short
	type cfg struct{ workers, inflight int }
	cfgs := []cfg{{1, 1}, {1, 4}, {4, 1}, {4, 8}, {2, 3}}
	var ref StreamResult
	var refOut []byte
	for i, c := range cfgs {
		var out bytes.Buffer
		res, err := p.RunStream(context.Background(), bytes.NewReader(data), &out, StreamOptions{
			VolumeBytes: 600,
			Workers:     c.workers,
			InFlight:    c.inflight,
		})
		if err != nil {
			t.Fatalf("cfg %+v: %v", c, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("cfg %+v: output differs from input", c)
		}
		if i == 0 {
			ref, refOut = res, out.Bytes()
			continue
		}
		if !bytes.Equal(out.Bytes(), refOut) {
			t.Fatalf("cfg %+v: output differs from cfg %+v", c, cfgs[0])
		}
		if len(res.Volumes) != len(ref.Volumes) {
			t.Fatalf("cfg %+v: %d volumes vs %d", c, len(res.Volumes), len(ref.Volumes))
		}
		for j := range res.Volumes {
			got, want := res.Volumes[j], ref.Volumes[j]
			if got.Strands != want.Strands || got.Reads != want.Reads ||
				got.Clusters != want.Clusters || got.Report.String() != want.Report.String() {
				t.Fatalf("cfg %+v volume %d: telemetry %d/%d/%d differs from reference %d/%d/%d",
					c, j, got.Strands, got.Reads, got.Clusters, want.Strands, want.Reads, want.Clusters)
			}
		}
	}
}

func TestStreamPooledDemux(t *testing.T) {
	// Pooling groups mix several volumes through one simulated sample; the
	// demux stage must route everything back deterministically.
	p := streamPipeline(t)
	data := streamTestData(2300) // 4 volumes
	for _, g := range []int{2, 3} {
		var out bytes.Buffer
		res, err := p.RunStream(context.Background(), bytes.NewReader(data), &out, StreamOptions{
			VolumeBytes: 600,
			PoolGroup:   g,
			InFlight:    1, // must be clamped up to PoolGroup, not deadlock
		})
		if err != nil {
			t.Fatalf("PoolGroup=%d: %v", g, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("PoolGroup=%d: output differs from input", g)
		}
		total := 0
		for _, v := range res.Volumes {
			total += v.Reads
		}
		if total+res.ClusterStats.Spilled != res.Reads+res.ClusterStats.Spilled || total == 0 {
			t.Fatalf("PoolGroup=%d: demux accounting broken: routed=%d spilled=%d", g, total, res.ClusterStats.Spilled)
		}
	}
}

// dropVolumeSim destroys one volume's sample: SimulateVolume returns no
// reads for the doomed volume (group), everything else passes through.
type dropVolumeSim struct {
	inner PoolSimulator
	drop  uint32
}

func (d dropVolumeSim) Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error) {
	return d.inner.Simulate(ctx, strands)
}

func (d dropVolumeSim) SimulateVolume(ctx context.Context, volume uint32, strands []dna.Seq) ([]sim.Read, error) {
	if volume == d.drop {
		return nil, nil
	}
	return d.inner.SimulateVolume(ctx, volume, strands)
}

func TestStreamDamagedVolumeDegradation(t *testing.T) {
	p := streamPipeline(t)
	p.Simulator = dropVolumeSim{inner: p.Simulator.(PoolSimulator), drop: 1}
	data := streamTestData(1800) // 3 volumes

	// Without best effort the run reports the damage as ErrVolumeDamaged —
	// after writing every byte it could.
	var out bytes.Buffer
	res, err := p.RunStream(context.Background(), bytes.NewReader(data), &out, StreamOptions{VolumeBytes: 600})
	if !errors.Is(err, ErrVolumeDamaged) {
		t.Fatalf("err = %v, want ErrVolumeDamaged", err)
	}
	if res.FailedVolumes != 1 || res.Volumes[1].Err == nil {
		t.Fatalf("FailedVolumes=%d, volume 1 err=%v", res.FailedVolumes, res.Volumes[1].Err)
	}

	// With best effort: nil error, surviving volumes intact at their
	// offsets, the damaged region zero-filled.
	out.Reset()
	res, err = p.RunStream(context.Background(), bytes.NewReader(data), &out, StreamOptions{
		RunOptions:  RunOptions{BestEffort: true},
		VolumeBytes: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Bytes()
	if len(got) != len(data) {
		t.Fatalf("output %d bytes, want %d (zero-fill must keep offsets)", len(got), len(data))
	}
	if !bytes.Equal(got[:600], data[:600]) || !bytes.Equal(got[1200:], data[1200:]) {
		t.Fatal("surviving volumes corrupted")
	}
	if !bytes.Equal(got[600:1200], make([]byte, 600)) {
		t.Fatal("damaged volume's region not zero-filled")
	}
	if res.Volumes[1].Err == nil {
		t.Fatal("damaged volume's Err not recorded under best effort")
	}
}

func TestStreamRetryKeepingNoClusterKeepsAttemptZero(t *testing.T) {
	// At coverage 1 a retry's floor of 2 keeps no cluster in volumes 1–3
	// (volume 0 has clusters that merged two reads, and its retry does not
	// improve on attempt 0). Every volume must end with the bytes, report and
	// outcome it has without retries.
	p := New(testCodec(t, nil),
		sim.Options{Channel: sim.CalibratedIID(0.004), Coverage: sim.FixedCoverage(1), Seed: 11},
		cluster.Options{Seed: 13},
		recon.DoubleSidedBMA{})
	data := streamTestData(2000)
	run := func(retries int) ([]byte, StreamResult) {
		var out bytes.Buffer
		res, err := p.RunStream(context.Background(), bytes.NewReader(data), &out, StreamOptions{
			RunOptions:  RunOptions{Retries: retries, BestEffort: true},
			VolumeBytes: 600,
		})
		if err != nil {
			t.Fatalf("retries %d: %v", retries, err)
		}
		return out.Bytes(), res
	}
	baseOut, base := run(0)
	if base.SalvagedVolumes == 0 {
		t.Fatalf("no volume salvaged without retries (%d failed); the case needs damage", base.FailedVolumes)
	}
	out, res := run(1)
	if !bytes.Equal(out, baseOut) {
		t.Fatal("output differs from the run without retries")
	}
	if res.SalvagedVolumes != base.SalvagedVolumes || res.FailedVolumes != base.FailedVolumes {
		t.Fatalf("salvaged/failed volumes %d/%d, want %d/%d as without retries",
			res.SalvagedVolumes, res.FailedVolumes, base.SalvagedVolumes, base.FailedVolumes)
	}
	for i, v := range res.Volumes {
		w := base.Volumes[i]
		if v.Outcome != w.Outcome || !reflect.DeepEqual(v.Report, w.Report) {
			t.Fatalf("volume %d: %s %v, want %s %v as without retries", i, v.Outcome, v.Report, w.Outcome, w.Report)
		}
	}
}

// panicClusterer panics on one volume and delegates otherwise.
type panicClusterer struct {
	inner  VolumeClusterer
	target uint32
}

func (p panicClusterer) Cluster(ctx context.Context, reads []dna.Seq) (cluster.Result, error) {
	return p.inner.Cluster(ctx, reads)
}

func (p panicClusterer) ClusterVolume(ctx context.Context, volume uint32, reads []dna.Seq) (cluster.Result, error) {
	if volume == p.target {
		panic(fmt.Sprintf("poisoned volume %d", volume))
	}
	return p.inner.ClusterVolume(ctx, volume, reads)
}

func TestStreamPanicIsolation(t *testing.T) {
	// A stage panicking on one volume must degrade that volume, not kill
	// the run (or the process).
	p := streamPipeline(t)
	p.Clusterer = panicClusterer{inner: p.Clusterer.(OptionsClusterer), target: 2}
	data := streamTestData(1900) // 4 volumes
	var out bytes.Buffer
	res, err := p.RunStream(context.Background(), bytes.NewReader(data), &out, StreamOptions{
		RunOptions:  RunOptions{BestEffort: true},
		VolumeBytes: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedVolumes != 1 {
		t.Fatalf("FailedVolumes = %d, want 1", res.FailedVolumes)
	}
	if !errors.Is(res.Volumes[2].Err, ErrStagePanic) {
		t.Fatalf("volume 2 err = %v, want ErrStagePanic", res.Volumes[2].Err)
	}
	if !bytes.Equal(out.Bytes()[:1200], data[:1200]) {
		t.Fatal("volumes before the poisoned one corrupted")
	}
}

func TestStreamCancellation(t *testing.T) {
	p := streamPipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	_, err := p.RunStream(ctx, bytes.NewReader(streamTestData(1200)), &out, StreamOptions{VolumeBytes: 600})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestStreamEmptyInput(t *testing.T) {
	// An empty archive still frames one (empty) volume so the stream is
	// self-describing end to end.
	p := streamPipeline(t)
	var out bytes.Buffer
	res, err := p.RunStream(context.Background(), bytes.NewReader(nil), &out, StreamOptions{VolumeBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 || len(res.Volumes) != 1 || res.Volumes[0].Bytes != 0 {
		t.Fatalf("empty stream: out=%d volumes=%d", out.Len(), len(res.Volumes))
	}
}

func TestStreamMatchesBatchPerVolume(t *testing.T) {
	// A single-volume stream and a batch run of the framed volume must see
	// the exact same strands: EncodeFile is the single-volume special case.
	c := testCodec(t, nil)
	data := streamTestData(500)
	strands, err := c.EncodeVolume(0, 600, data)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := c.VolumeCodec(0, 600)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := vc.DecodeFileContext(context.Background(), strands, codec.DecodeOptions{})
	if err != nil || !rep.Clean() {
		t.Fatalf("volume strands are not a plain encoded file: %v %s", err, rep)
	}
}

// TestStreamSmoke is the CI stream-smoke job: a 16 MiB archive streamed end
// to end in 1 MiB volumes under the race detector, with the process
// expected to run under a GOMEMLIMIT far below the read pool a batch run of
// the same archive would materialize (`make stream-smoke` sets 256 MiB).
// Opt-in via DNASTORE_STREAM_SMOKE so plain `go test ./...` stays fast —
// the round trip moves ~500k simulated reads. Coverage 3 leaves a plain BMA
// consensus little margin (at this seed double-sided BMA loses one volume of
// the sixteen even after a retry), so the reconstructor is the adaptive
// BMA/POA dispatcher, which takes the POA second opinion per cluster; one
// retry stays on as a real caller of this config would set it.
func TestStreamSmoke(t *testing.T) {
	if os.Getenv("DNASTORE_STREAM_SMOKE") == "" {
		t.Skip("set DNASTORE_STREAM_SMOKE=1 (see make stream-smoke)")
	}
	c, err := codec.NewCodec(codec.Params{N: 48, K: 40, PayloadBytes: 120, IndexBases: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{
		Codec: c,
		Simulator: PoolSimulator{Options: sim.Options{
			Channel:  sim.CalibratedIID(0.001),
			Coverage: sim.FixedCoverage(3),
			Seed:     8,
		}},
		Clusterer: OptionsClusterer{Options: cluster.Options{
			Seed: 9, Rounds: 6, NoStragglerSweep: true,
			GramLen: 5, ThetaLow: 4, ThetaHigh: 12, EditThreshold: 40,
		}},
		Reconstructor: AlgorithmReconstructor{Algorithm: recon.Adaptive{}},
	}
	rng := xrand.New(0x57e4)
	data := make([]byte, 16<<20)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	var out bytes.Buffer
	out.Grow(len(data))
	res, err := p.RunStream(context.Background(), bytes.NewReader(data), &out, StreamOptions{
		VolumeBytes: 1 << 20, InFlight: 4,
		RunOptions: RunOptions{Retries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("16 MiB streaming round trip is not byte-identical to the input")
	}
	if len(res.Volumes) != 16 || res.FailedVolumes != 0 {
		t.Fatalf("volumes=%d failed=%d, want 16/0", len(res.Volumes), res.FailedVolumes)
	}
}
