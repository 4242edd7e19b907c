package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// panicEveryNChannel panics on every Nth transmitted strand, exercising the
// simulation worker pool's per-strand salvage path.
type panicEveryNChannel struct {
	inner sim.Channel
	every int64
	calls atomic.Int64
}

func (c *panicEveryNChannel) Name() string { return "panic-every-n" }

func (c *panicEveryNChannel) Transmit(rng *xrand.RNG, strand dna.Seq) dna.Seq {
	if c.calls.Add(1)%c.every == 0 {
		panic("injected channel panic")
	}
	return c.inner.Transmit(rng, strand)
}

// panicEveryNAlgo panics on every Nth reconstructed cluster, exercising the
// reconstruction worker pool's per-cluster salvage path.
type panicEveryNAlgo struct {
	inner recon.Algorithm
	every int64
	calls atomic.Int64
}

func (a *panicEveryNAlgo) Name() string { return "panic-every-n" }

func (a *panicEveryNAlgo) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	if a.calls.Add(1)%a.every == 0 {
		panic("injected reconstruction panic")
	}
	return a.inner.Reconstruct(reads, targetLen)
}

func TestPanickingChannelDoesNotCrashRun(t *testing.T) {
	// A Channel that panics inside the simulation worker pool must cost at
	// most the affected strands (dropouts the outer code absorbs), never the
	// process. 30 strands × coverage 10 with a panic every 40th transmission
	// loses well under the 10-erasure budget of RS(30,20).
	data := []byte("panic in the channel must degrade to dropouts")
	c := testCodec(t, nil)
	ch := &panicEveryNChannel{inner: sim.CalibratedIID(0.01), every: 40}
	p := New(c,
		sim.Options{Channel: ch, Coverage: sim.FixedCoverage(10), Seed: 101},
		cluster.Options{Seed: 103},
		recon.NW{})
	res, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("data corrupted: %v", res.Report)
	}
	if res.Report.MissingColumns == 0 {
		t.Fatal("panics were injected but no strand went missing")
	}
}

func TestPanickingAlgorithmDoesNotCrashRun(t *testing.T) {
	// A reconstruction Algorithm that panics inside the worker pool must cost
	// at most the affected clusters (nil consensus → erasure), never the
	// process. ~30 clusters with a panic every 8th stays within budget.
	data := []byte("panic in the consensus must degrade to erasures")
	c := testCodec(t, nil)
	algo := &panicEveryNAlgo{inner: recon.NW{}, every: 8}
	p := New(c,
		sim.Options{Channel: sim.CalibratedIID(0.01), Coverage: sim.FixedCoverage(10), Seed: 107},
		cluster.Options{Seed: 109},
		algo)
	res, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("data corrupted: %v", res.Report)
	}
	if res.Report.MissingColumns == 0 {
		t.Fatal("panics were injected but no column was erased")
	}
}

// panicReconstructor panics on the orchestrator's goroutine (a stage-level
// fault, not a per-work-item one).
type panicReconstructor struct{}

func (panicReconstructor) Name() string { return "stage-panic" }

func (panicReconstructor) ReconstructAll(context.Context, [][]dna.Seq, int) ([]dna.Seq, error) {
	panic("whole stage down")
}

func TestStagePanicBecomesTypedError(t *testing.T) {
	p := testPipeline(t, recon.NW{}, 0.01, 6)
	p.Reconstructor = panicReconstructor{}
	_, err := p.RunContext(context.Background(), []byte("contained"), RunOptions{})
	if !errors.Is(err, ErrStagePanic) {
		t.Fatalf("err = %v, want ErrStagePanic", err)
	}
}

// blockingSimulator blocks until its context is cancelled, then reports the
// cancellation like a cooperative stage should.
type blockingSimulator struct{}

func (blockingSimulator) Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error) {
	select {
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	case <-time.After(30 * time.Second):
		return nil, errors.New("blockingSimulator was never cancelled")
	}
}

func TestCancellationAbortsPromptly(t *testing.T) {
	p := testPipeline(t, recon.NW{}, 0.01, 6)
	p.Simulator = blockingSimulator{}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := p.RunContext(ctx, []byte("abort me"), RunOptions{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	p := testPipeline(t, recon.NW{}, 0.01, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunContext(ctx, []byte("never starts"), RunOptions{}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestStageTimeout(t *testing.T) {
	p := testPipeline(t, recon.NW{}, 0.01, 6)
	p.Simulator = blockingSimulator{}
	start := time.Now()
	_, err := p.RunContext(context.Background(), []byte("deadline"), RunOptions{StageTimeout: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stage timeout took %v", elapsed)
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.DeadlineExceeded", err)
	}
}

// garbageReconstructor returns no usable consensus at all.
type garbageReconstructor struct{}

func (garbageReconstructor) Name() string { return "garbage" }

func (garbageReconstructor) ReconstructAll(_ context.Context, clusters [][]dna.Seq, _ int) ([]dna.Seq, error) {
	return make([]dna.Seq, len(clusters)), nil // all nil: nothing parsable
}

// starvedThirdSimulator sequences every third strand once, without error,
// and every other strand four times through a 1 % IID channel.
type starvedThirdSimulator struct{ seed uint64 }

func (s starvedThirdSimulator) Simulate(_ context.Context, strands []dna.Seq) ([]sim.Read, error) {
	rng := xrand.New(s.seed)
	ch := sim.CalibratedIID(0.01)
	var reads []sim.Read
	for i, st := range strands {
		if i%3 == 0 {
			reads = append(reads, sim.Read{Seq: st.Clone(), Origin: i})
			continue
		}
		for range 4 {
			reads = append(reads, sim.Read{Seq: ch.Transmit(rng, st), Origin: i})
		}
	}
	return reads, nil
}

// singleReadSaboteur is NW consensus that substitutes every base of the
// second half of each single-read cluster's consensus: the wrong strands a
// starved cluster can produce.
type singleReadSaboteur struct{}

func (singleReadSaboteur) Name() string { return "single-read-saboteur" }

func (singleReadSaboteur) ReconstructAll(ctx context.Context, clusters [][]dna.Seq, targetLen int) ([]dna.Seq, error) {
	out, err := recon.ReconstructAllContext(ctx, clusters, targetLen, recon.NW{}, 0)
	for i, c := range clusters {
		if len(c) != 1 || len(out[i]) == 0 {
			continue
		}
		bad := out[i].Clone()
		for j := len(bad) / 2; j < len(bad); j++ {
			bad[j] = (bad[j] + 1) % dna.NumBases
		}
		out[i] = bad
	}
	return out, err
}

func TestRetryFloorRecovers(t *testing.T) {
	// A third of the strands come back as a single read whose consensus is
	// wrong: as errors they cost the outer code two parity symbols each and
	// sink the decode. The retry's floor of 2 reads drops those clusters, so
	// they cost one symbol each as erasures, and the file comes back.
	data := bytes.Repeat([]byte("dna storage toolkit!"), 20)
	p := testPipeline(t, recon.NW{}, 0, 4)
	p.Simulator = starvedThirdSimulator{seed: 151}
	p.Reconstructor = singleReadSaboteur{}

	first, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.FailedCodewords == 0 || bytes.Equal(first.Data, data) {
		t.Fatalf("attempt 0 alone decoded the file (%v); the retry has nothing to show", first.Report)
	}

	res, err := p.RunContext(context.Background(), data, RunOptions{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	if !bytes.Equal(res.Data, data) || res.Report.FailedCodewords != 0 {
		t.Fatalf("the floor did not recover the file: %v", res.Report)
	}
	if want := res.Strands / 3 * p.Codec.Params().PayloadBytes; res.Report.ErasedSymbols != want {
		t.Fatalf("erased symbols = %d, want %d (one per payload byte of each single-read strand)", res.Report.ErasedSymbols, want)
	}
}

func TestRetriesExhaustedTypedError(t *testing.T) {
	p := testPipeline(t, recon.NW{}, 0.01, 8)
	p.Reconstructor = garbageReconstructor{}
	_, err := p.RunContext(context.Background(), []byte("hopeless"), RunOptions{Retries: 2})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, codec.ErrDecode) {
		t.Fatalf("err = %v, want the underlying codec.ErrDecode preserved", err)
	}
}

func TestNoUsableClustersReportsAccurately(t *testing.T) {
	// Degenerate edge: a run with no reads leaves attempt 0 no cluster to
	// reconstruct. RunContext must return the typed error AND a populated
	// report (every molecule missing), whatever the retry count.
	data := []byte("no reads at all")
	p := testPipeline(t, recon.NW{}, 0.01, 2)
	p.Simulator = ReadsSource{}
	for _, retries := range []int{0, 2} {
		res, err := p.RunContext(context.Background(), data, RunOptions{Retries: retries})
		if !errors.Is(err, ErrNoUsableClusters) {
			t.Fatalf("retries %d: err = %v, want ErrNoUsableClusters", retries, err)
		}
		if !strings.Contains(err.Error(), "cluster-size floor 1") {
			t.Fatalf("retries %d: err %q does not name the floor", retries, err)
		}
		if res.Report.MissingColumns != res.Strands || res.Strands == 0 {
			t.Fatalf("retries %d: report not populated: missing=%d strands=%d", retries, res.Report.MissingColumns, res.Strands)
		}
		if res.Attempts != 0 {
			t.Fatalf("retries %d: attempts = %d, want 0", retries, res.Attempts)
		}
	}
}

// stageRetries returns the retry counter of the named stage.
func stageRetries(stages []obs.StageSnapshot, name string) int64 {
	for _, s := range stages {
		if s.Stage == name {
			return s.Retries
		}
	}
	return 0
}

func TestRetryKeepingNoClusterKeepsAttemptZero(t *testing.T) {
	// At coverage 1 each of this run's 60 clusters holds one read, so the
	// first retry's floor of 2 keeps none. That retry must end the attempts
	// with attempt 0's outcome (data with failed codewords), not discard it
	// for ErrNoUsableClusters.
	data := bytes.Repeat([]byte("dna storage toolkit!"), 20)
	p := testPipeline(t, recon.DoubleSidedBMA{}, 0.02, 1)
	base, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Report.FailedCodewords == 0 {
		t.Fatalf("attempt 0 decoded cleanly (%v); the case needs failed codewords", base.Report)
	}
	for _, best := range []bool{false, true} {
		res, err := p.RunContext(context.Background(), data, RunOptions{Retries: 1, BestEffort: best})
		if err != nil {
			t.Fatalf("best effort %v: %v", best, err)
		}
		if !bytes.Equal(res.Data, base.Data) || !reflect.DeepEqual(res.Report, base.Report) {
			t.Fatalf("best effort %v: report %v, want attempt 0's %v", best, res.Report, base.Report)
		}
		if res.Attempts != 1 {
			t.Fatalf("best effort %v: attempts = %d, want 1 (the retry kept no cluster)", best, res.Attempts)
		}
		for _, stage := range []string{stageReconstruct, stageDecode} {
			if n := stageRetries(res.Stages, stage); n != 0 {
				t.Fatalf("best effort %v: %s counted %d retries, want 0", best, stage, n)
			}
		}
	}
}

func TestRetriesNeverWorseThanNone(t *testing.T) {
	// Property: at low coverage, where retries' floors drop many or all
	// clusters, Retries 1 and 2 never return an error where Retries 0
	// returned data, and never more failed codewords. With BestEffort this
	// includes the case where attempt 0's data is a salvage (seed 3, 1 %,
	// coverage 1: 13 failed codewords) and a retry decodes worse data.
	data := bytes.Repeat([]byte("retries never hurt "), 20)
	for _, seed := range []uint64{1, 2, 3} {
		for _, rate := range []float64{0.01, 0.03} {
			for _, coverage := range []int{1, 2} {
				p := New(testCodec(t, nil),
					sim.Options{Channel: sim.CalibratedIID(rate), Coverage: sim.FixedCoverage(coverage), Seed: seed},
					cluster.Options{Seed: seed + 1},
					recon.DoubleSidedBMA{})
				for _, best := range []bool{false, true} {
					name := fmt.Sprintf("seed %d rate %v coverage %d best effort %v", seed, rate, coverage, best)
					base, err := p.RunContext(context.Background(), data, RunOptions{BestEffort: best})
					if err != nil {
						continue // Retries 0 returned no data: nothing to compare
					}
					for _, retries := range []int{1, 2} {
						res, err := p.RunContext(context.Background(), data, RunOptions{Retries: retries, BestEffort: best})
						if err != nil {
							t.Fatalf("%s: Retries %d failed (%v) where Retries 0 returned data", name, retries, err)
						}
						if res.Report.FailedCodewords > base.Report.FailedCodewords {
							t.Fatalf("%s: Retries %d left %d failed codewords, Retries 0 %d", name, retries, res.Report.FailedCodewords, base.Report.FailedCodewords)
						}
					}
				}
			}
		}
	}
}

// unitDroppingSimulator simulates normally, then discards every read that
// originated from the given encoding unit — a localized total loss.
type unitDroppingSimulator struct {
	opts sim.Options
	unit int
	n    int // molecules per unit
}

func (u unitDroppingSimulator) Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error) {
	reads, err := sim.SimulatePoolContext(ctx, strands, u.opts)
	if err != nil {
		return nil, err
	}
	kept := reads[:0]
	for _, r := range reads {
		if r.Origin/u.n != u.unit {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

func TestDamageMapLocalizesLostUnit(t *testing.T) {
	// Destroy all of unit 1's molecules. RunContext still returns the
	// readable bytes; the damage map must flag exactly unit 1, and the bytes
	// of the intact units must be bit-exact.
	c := testCodec(t, nil)
	unitBytes := c.UnitDataBytes()
	data := bytes.Repeat([]byte("0123456789abcdef"), (3*unitBytes-8)/16) // ~3 units
	p := &Pipeline{
		Codec: c,
		Simulator: unitDroppingSimulator{
			opts: sim.Options{Channel: sim.CalibratedIID(0.01), Coverage: sim.FixedCoverage(10), Seed: 131},
			unit: 1,
			n:    30,
		},
		Clusterer:     OptionsClusterer{Options: cluster.Options{Seed: 137}},
		Reconstructor: AlgorithmReconstructor{Algorithm: recon.NW{}},
	}
	res, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Partial {
		t.Fatalf("partial flag not set: %v", res.Report)
	}
	damaged := res.Report.DamagedUnits()
	if len(damaged) != 1 || damaged[0] != 1 {
		t.Fatalf("damaged units = %v, want [1]", damaged)
	}
	if len(res.Data) != len(data) {
		t.Fatalf("length %d, want %d", len(res.Data), len(data))
	}
	// Unit u spans framed bytes [u·unitBytes, (u+1)·unitBytes); the 8-byte
	// header shifts the data ranges left by 8.
	u1lo, u1hi := 1*unitBytes-8, 2*unitBytes-8
	if !bytes.Equal(res.Data[:u1lo], data[:u1lo]) || !bytes.Equal(res.Data[u1hi:], data[u1hi:]) {
		t.Fatal("intact units corrupted")
	}
	if bytes.Equal(res.Data[u1lo:u1hi], data[u1lo:u1hi]) {
		t.Fatal("unit 1 was destroyed yet came back intact — the damage map is meaningless")
	}
}

func TestShardedClustererInPipeline(t *testing.T) {
	data := bytes.Repeat([]byte("sharded clustering in the pipeline"), 8)
	c := testCodec(t, nil)
	p := &Pipeline{
		Codec:         c,
		Simulator:     PoolSimulator{Options: sim.Options{Channel: sim.CalibratedIID(0.03), Coverage: sim.FixedCoverage(8), Seed: 139}},
		Clusterer:     ShardedClusterer{Options: cluster.Options{Seed: 149}, Shards: 4},
		Reconstructor: AlgorithmReconstructor{Algorithm: recon.NW{}},
	}
	res, err := p.RunContext(context.Background(), data, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("sharded pipeline corrupted the file: %v", res.Report)
	}
}
