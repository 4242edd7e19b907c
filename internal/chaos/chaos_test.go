package chaos

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/core"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

func testCodec(t *testing.T) *codec.Codec {
	t.Helper()
	c, err := codec.NewCodec(codec.Params{N: 30, K: 20, PayloadBytes: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// chaoticPipeline assembles a pipeline whose simulator drops and truncates
// reads, whose channel and reconstruction algorithm panic periodically inside
// the worker pools, and whose stages all sleep a little. The channel and
// algorithm wrappers come back too, so tests can count their panics.
func chaoticPipeline(t *testing.T, f Faults) (*core.Pipeline, *Channel, *Algorithm) {
	t.Helper()
	c := testCodec(t)
	ch := &Channel{Inner: sim.CalibratedIID(0.02), PanicEveryN: 70}
	alg := &Algorithm{Inner: recon.NW{}, PanicEveryN: 15}
	inner := core.PoolSimulator{Options: sim.Options{
		Channel:  ch,
		Coverage: sim.FixedCoverage(10),
		Seed:     211,
	}}
	return &core.Pipeline{
		Codec:     c,
		Simulator: &Simulator{Inner: inner, Faults: f},
		Clusterer: &Clusterer{Inner: core.OptionsClusterer{Options: cluster.Options{Seed: 223}}, Faults: Faults{StageLatency: f.StageLatency}},
		Reconstructor: &Reconstructor{
			Inner:  core.AlgorithmReconstructor{Algorithm: alg},
			Faults: Faults{StageLatency: f.StageLatency},
		},
	}, ch, alg
}

func TestChaoticRunSurvives(t *testing.T) {
	// The acceptance scenario: injected worker-pool panics, read drops, read
	// truncation and stage latency all at once. Run must complete without
	// crashing and either recover the file bit-exact or return partial data
	// whose damage map accurately brackets the corruption.
	data := bytes.Repeat([]byte("chaos engineering for dna storage! "), 12)
	p, ch, alg := chaoticPipeline(t, Faults{
		Seed:         307,
		DropRead:     0.03,
		TruncateRead: 0.02,
		StageLatency: 2 * time.Millisecond,
	})
	res, err := p.Run(data, core.RunOptions{Retries: 2, BestEffort: true})
	if err != nil {
		t.Fatalf("chaotic run failed outright: %v", err)
	}
	if ch.Injected() == 0 || alg.Injected() == 0 {
		t.Fatalf("injected %d channel and %d cluster panics, want both salvage paths exercised", ch.Injected(), alg.Injected())
	}
	if bytes.Equal(res.Data, data) {
		return // fully recovered despite the chaos: the ideal outcome
	}
	// Partial recovery: every corrupted region must be flagged.
	if !res.Report.Partial {
		t.Fatalf("data differs but Partial not set: %v", res.Report)
	}
	unitBytes := testCodec(t).UnitDataBytes()
	damaged := map[int]bool{}
	for _, u := range res.Report.DamagedUnits() {
		damaged[u] = true
	}
	limit := len(data)
	if len(res.Data) < limit {
		limit = len(res.Data)
	}
	for i := 0; i < limit; i++ {
		if res.Data[i] != data[i] {
			if u := (i + 8) / unitBytes; !damaged[u] {
				t.Fatalf("byte %d (unit %d) corrupt but not in damage map %v", i, u, res.Report.DamagedUnits())
			}
		}
	}
}

func TestChaosIsDeterministic(t *testing.T) {
	data := bytes.Repeat([]byte("replayable faults"), 10)
	run := func() (core.Result, error, [2]int64) {
		p, ch, alg := chaoticPipeline(t, Faults{Seed: 311, DropRead: 0.05, TruncateRead: 0.05})
		res, err := p.Run(data, core.RunOptions{Retries: 1, BestEffort: true})
		return res, err, [2]int64{ch.Injected(), alg.Injected()}
	}
	a, errA, injA := run()
	b, errB, injB := run()
	if injA[0] == 0 || injA[1] == 0 || injA != injB {
		t.Fatalf("injected [channel cluster] panics %v then %v, want the same non-zero counts", injA, injB)
	}
	if (errA == nil) != (errB == nil) {
		t.Fatalf("outcomes diverged: %v vs %v", errA, errB)
	}
	if !bytes.Equal(a.Data, b.Data) {
		t.Fatal("identical seeds produced different data")
	}
	if a.Report.String() != b.Report.String() {
		t.Fatalf("identical seeds produced different reports:\n%v\n%v", a.Report, b.Report)
	}
}

func TestStagePanicIsContained(t *testing.T) {
	c := testCodec(t)
	p := &core.Pipeline{
		Codec: c,
		Simulator: &Simulator{
			Inner:  core.PoolSimulator{Options: sim.Options{Channel: sim.CalibratedIID(0.01), Coverage: sim.FixedCoverage(4), Seed: 1}},
			Faults: Faults{PanicEveryN: 1},
		},
		Clusterer:     core.OptionsClusterer{Options: cluster.Options{Seed: 2}},
		Reconstructor: core.AlgorithmReconstructor{Algorithm: recon.NW{}},
	}
	_, err := p.Run([]byte("boom"), core.RunOptions{})
	if !errors.Is(err, core.ErrStagePanic) {
		t.Fatalf("err = %v, want core.ErrStagePanic", err)
	}
}

func TestPanicHookSurfacesAsStagePanic(t *testing.T) {
	// A PanicHook rides the observability spine: it panics inside the stage
	// boundary, so the orchestrator must wrap it as ErrStagePanic carrying
	// the stage's name, and the sink registry must count the contained panic.
	for _, stage := range []string{"encode", "cluster"} {
		t.Run(stage, func(t *testing.T) {
			c := testCodec(t)
			p := &core.Pipeline{
				Codec:         c,
				Simulator:     core.PoolSimulator{Options: sim.Options{Channel: sim.CalibratedIID(0.01), Coverage: sim.FixedCoverage(4), Seed: 1}},
				Clusterer:     core.OptionsClusterer{Options: cluster.Options{Seed: 2}},
				Reconstructor: core.AlgorithmReconstructor{Algorithm: recon.NW{}},
				Metrics:       obs.NewRegistry(),
			}
			p.Metrics.OnEvent(PanicHook(stage, 1))
			_, err := p.Run([]byte("hook boom"), core.RunOptions{})
			if !errors.Is(err, core.ErrStagePanic) {
				t.Fatalf("err = %v, want core.ErrStagePanic", err)
			}
			if !strings.Contains(err.Error(), stage) {
				t.Fatalf("err %q does not name stage %q", err, stage)
			}
			var counted int64
			for _, snap := range p.Metrics.Snapshot() {
				if snap.Stage == stage {
					counted = snap.Panics
				}
			}
			if counted != 1 {
				t.Fatalf("sink registry counted %d panics for %s, want 1", counted, stage)
			}
		})
	}
}

func TestInjectedLatencyTripsStageTimeout(t *testing.T) {
	c := testCodec(t)
	p := &core.Pipeline{
		Codec: c,
		Simulator: &Simulator{
			Inner:  core.PoolSimulator{Options: sim.Options{Channel: sim.CalibratedIID(0.01), Coverage: sim.FixedCoverage(4), Seed: 1}},
			Faults: Faults{StageLatency: 30 * time.Second},
		},
		Clusterer:     core.OptionsClusterer{Options: cluster.Options{Seed: 2}},
		Reconstructor: core.AlgorithmReconstructor{Algorithm: recon.NW{}},
	}
	start := time.Now()
	_, err := p.Run([]byte("slow"), core.RunOptions{StageTimeout: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("err = %v, want core.ErrCancelled", err)
	}
}

func TestDropAndTruncateAreApplied(t *testing.T) {
	c := testCodec(t)
	strands, err := c.EncodeFile([]byte("count the reads"))
	if err != nil {
		t.Fatal(err)
	}
	inner := core.PoolSimulator{Options: sim.Options{Channel: sim.CalibratedIID(0), Coverage: sim.FixedCoverage(10), Seed: 3}}
	clean, err := inner.Simulate(t.Context(), strands)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := (&Simulator{Inner: inner, Faults: Faults{Seed: 5, DropRead: 0.3, TruncateRead: 0.3}}).Simulate(t.Context(), strands)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty) >= len(clean) {
		t.Fatalf("no reads dropped: %d vs %d", len(faulty), len(clean))
	}
	truncated := 0
	for _, r := range faulty {
		if len(r.Seq) < c.StrandLen() {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("no read truncated")
	}
}

// countingSim counts every read the wrapped simulator emits, so a test can
// prove the streaming demux accounts for all of them (routed + spilled).
type countingSim struct {
	inner core.VolumeSimulator
	total *atomic.Int64
}

func (c countingSim) Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error) {
	reads, err := c.inner.Simulate(ctx, strands)
	c.total.Add(int64(len(reads)))
	return reads, err
}

func (c countingSim) SimulateVolume(ctx context.Context, volume uint32, strands []dna.Seq) ([]sim.Read, error) {
	reads, err := c.inner.SimulateVolume(ctx, volume, strands)
	c.total.Add(int64(len(reads)))
	return reads, err
}

func TestStreamDemuxSpillsScrambledReads(t *testing.T) {
	// Chaos-seeded demux edge case: reads whose index prefix is scrambled
	// must land in the spill shard — counted, never silently dropped and
	// never misrouted into another volume's cluster set — and the archive
	// must still round-trip off the surviving reads.
	c := testCodec(t)
	inner := core.PoolSimulator{Options: sim.Options{
		Channel:  sim.CalibratedIID(0.01),
		Coverage: sim.FixedCoverage(8),
		Seed:     211,
	}}
	var total atomic.Int64
	p := &core.Pipeline{
		Codec: c,
		Simulator: countingSim{
			inner: &Simulator{Inner: inner, Faults: Faults{Seed: 99, ScrambleIndex: 0.1}},
			total: &total,
		},
		Clusterer:     core.OptionsClusterer{Options: cluster.Options{Seed: 223}},
		Reconstructor: core.AlgorithmReconstructor{Algorithm: recon.DoubleSidedBMA{}},
	}
	rng := xrand.New(0x5b1ed)
	data := make([]byte, 1800) // 3 volumes of 600 bytes
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	var out bytes.Buffer
	res, err := p.RunStream(context.Background(), bytes.NewReader(data), &out, core.StreamOptions{VolumeBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("stream with scrambled-index chaos failed to round-trip")
	}
	if res.ClusterStats.Spilled == 0 {
		t.Fatal("no reads spilled despite 10% index scrambling")
	}
	if got := res.Reads + res.ClusterStats.Spilled; int64(got) != total.Load() {
		t.Fatalf("demux accounting: routed %d + spilled %d != %d reads produced",
			res.Reads, res.ClusterStats.Spilled, total.Load())
	}
}
