// Package chaos injects seeded, deterministic faults into DNA storage
// pipeline modules, for driving degradation tests against the fault-tolerant
// runtime in internal/core. Three granularities are provided:
//
//   - Stage wrappers (Simulator, Clusterer, Reconstructor) decorate a whole
//     pipeline stage with injected latency and — for the simulator — read
//     drops, read truncation and index scrambling.
//   - PanicHook panics on every Nth entry into a named stage from the
//     observability hooks, so it reaches every stage, wrapped or not. A
//     stage panic exercises the orchestrator's panic containment
//     (core.ErrStagePanic).
//   - Work-item wrappers (Channel, Algorithm) decorate the units the
//     built-in worker pools iterate over, panicking on one in every N
//     transmissions or clusters. These exercise the per-item salvage paths:
//     a panicked transmission drops its strand, a panicked cluster becomes
//     an erasure, and the outer Reed–Solomon code absorbs both (§IV).
//
// All injection is driven by Faults.Seed, deterministic counting of stage
// entries, and the work items themselves (a transmission's own random
// stream, a cluster's reads), so a chaotic run is exactly reproducible at
// any worker count.
package chaos

import (
	"context"
	"sync/atomic"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/core"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// Faults configures the injected failure modes. The zero value injects
// nothing.
type Faults struct {
	// Seed drives all randomized fault decisions.
	Seed uint64
	// DropRead is the probability that each simulated read is silently
	// discarded (models strand loss between sequencing and analysis).
	DropRead float64
	// TruncateRead is the probability that each surviving read is cut off
	// at a random interior position (models early sequencing termination).
	TruncateRead float64
	// ScrambleIndex is the probability that each surviving read's leading
	// ScrambleBases bases are overwritten with random ones (models
	// synthesis/sequencing damage concentrated on the index prefix, which
	// defeats the streaming demux's routing — such reads must land in the
	// spill shard, never be misrouted silently into another volume).
	ScrambleIndex float64
	// ScrambleBases is the width of the scrambled prefix. Defaults to 8
	// (the codec's default IndexBases) when ScrambleIndex is set.
	ScrambleBases int
	// StageLatency is added to every wrapped stage invocation before any
	// work happens. The injected sleep honours context cancellation, so
	// deadline tests abort promptly.
	StageLatency time.Duration
}

// PanicHook returns an obs.Hook that panics on every everyN'th StageBegin
// event of the named stage — fault injection that rides the observability
// spine instead of wrapping a module. Because hooks run synchronously on the
// stage's goroutine, the panic erupts inside the orchestrator's stage
// boundary and must surface as core.ErrStagePanic carrying the stage name.
// It needs no knowledge of the stage's interface, so it also reaches stages
// that have no wrapper (encode, decode, demux). everyN <= 0 never panics.
func PanicHook(stage string, everyN int) obs.Hook {
	var calls counter
	return func(ev obs.Event) {
		if ev.Kind != obs.StageBegin || ev.Stage != stage {
			return
		}
		if calls.tick(everyN) {
			panic("chaos: injected hook panic in " + stage)
		}
	}
}

// counter is a concurrency-safe deterministic call counter.
type counter struct{ n atomic.Int64 }

// tick increments and reports whether this call is an injection point.
func (c *counter) tick(every int) bool {
	if every <= 0 {
		return false
	}
	return c.n.Add(1)%int64(every) == 0
}

// pickItem reports whether a work item drawing h, a uniform 64-bit value, is
// an injection point for a wrapper that panics on one in every items. Worker
// pools call the work-item wrappers in whatever order the schedule gives, so
// a shared call counter would pick different items from run to run; h comes
// from the item itself instead.
func pickItem(h uint64, every int) bool {
	return every > 0 && h%uint64(every) == 0
}

// hashReads hashes a cluster's reads to a uniform 64-bit value: FNV-1a over
// the bases with a separator after each read, spread by Murmur3's finalizer.
func hashReads(reads []dna.Seq) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, r := range reads {
		for _, b := range r {
			h = (h ^ uint64(b)) * prime
		}
		h = (h ^ 0xff) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// sleepCtx sleeps for d unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// Simulator wraps a core.Simulator with fault injection: injected stage
// latency, read drops, read truncation and index scrambling.
type Simulator struct {
	Inner  core.Simulator
	Faults Faults
}

// Simulate implements core.Simulator.
func (s *Simulator) Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error) {
	if err := sleepCtx(ctx, s.Faults.StageLatency); err != nil {
		return nil, err
	}
	reads, err := s.Inner.Simulate(ctx, strands)
	if err != nil {
		return nil, err
	}
	return s.applyReadFaults(ctx, reads, xrand.Derive(s.Faults.Seed, 0xc4a05))
}

// SimulateVolume implements core.VolumeSimulator so the chaos wrapper is
// transparent to the streaming runtime: the inner simulator's per-volume
// seed derivation is preserved when available, and the fault RNG is derived
// per volume, so injected faults depend only on (Faults.Seed, volume id) —
// never on which volumes are in flight.
func (s *Simulator) SimulateVolume(ctx context.Context, volume uint32, strands []dna.Seq) ([]sim.Read, error) {
	if err := sleepCtx(ctx, s.Faults.StageLatency); err != nil {
		return nil, err
	}
	var reads []sim.Read
	var err error
	if vs, ok := s.Inner.(core.VolumeSimulator); ok {
		reads, err = vs.SimulateVolume(ctx, volume, strands)
	} else {
		reads, err = s.Inner.Simulate(ctx, strands)
	}
	if err != nil {
		return nil, err
	}
	return s.applyReadFaults(ctx, reads, xrand.Derive(s.Faults.Seed, 0xc4a05^uint64(volume)))
}

// applyReadFaults runs the per-read fault lottery (drop, truncate, index
// scramble) over reads with the given deterministic RNG.
func (s *Simulator) applyReadFaults(ctx context.Context, reads []sim.Read, rng *xrand.RNG) ([]sim.Read, error) {
	if s.Faults.DropRead <= 0 && s.Faults.TruncateRead <= 0 && s.Faults.ScrambleIndex <= 0 {
		return reads, nil
	}
	scrambleBases := s.Faults.ScrambleBases
	if scrambleBases <= 0 {
		scrambleBases = 8
	}
	out := make([]sim.Read, 0, len(reads))
	for i, r := range reads {
		if i&0xfff == 0 && ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		if rng.Bool(s.Faults.DropRead) {
			continue
		}
		if rng.Bool(s.Faults.TruncateRead) && len(r.Seq) > 1 {
			r.Seq = r.Seq[:1+rng.Intn(len(r.Seq)-1)]
		}
		if rng.Bool(s.Faults.ScrambleIndex) && len(r.Seq) > 0 {
			n := min(scrambleBases, len(r.Seq))
			scrambled := r.Seq.Clone()
			for b := 0; b < n; b++ {
				scrambled[b] = dna.Base(rng.Intn(dna.NumBases))
			}
			r.Seq = scrambled
		}
		out = append(out, r)
	}
	return out, nil
}

// Clusterer wraps a core.Clusterer with injected stage latency.
type Clusterer struct {
	Inner  core.Clusterer
	Faults Faults
}

// Cluster implements core.Clusterer.
func (c *Clusterer) Cluster(ctx context.Context, reads []dna.Seq) (cluster.Result, error) {
	if err := sleepCtx(ctx, c.Faults.StageLatency); err != nil {
		return cluster.Result{}, err
	}
	return c.Inner.Cluster(ctx, reads)
}

// ClusterVolume implements core.VolumeClusterer, preserving the inner
// clusterer's per-volume seed derivation when it has one.
func (c *Clusterer) ClusterVolume(ctx context.Context, volume uint32, reads []dna.Seq) (cluster.Result, error) {
	if err := sleepCtx(ctx, c.Faults.StageLatency); err != nil {
		return cluster.Result{}, err
	}
	if vc, ok := c.Inner.(core.VolumeClusterer); ok {
		return vc.ClusterVolume(ctx, volume, reads)
	}
	return c.Inner.Cluster(ctx, reads)
}

// Reconstructor wraps a core.Reconstructor with injected stage latency.
type Reconstructor struct {
	Inner  core.Reconstructor
	Faults Faults
}

// ReconstructAll implements core.Reconstructor.
func (r *Reconstructor) ReconstructAll(ctx context.Context, clusters [][]dna.Seq, targetLen int) ([]dna.Seq, error) {
	if err := sleepCtx(ctx, r.Faults.StageLatency); err != nil {
		return nil, err
	}
	return r.Inner.ReconstructAll(ctx, clusters, targetLen)
}

// Name implements core.Reconstructor.
func (r *Reconstructor) Name() string { return "chaos(" + r.Inner.Name() + ")" }

// Channel wraps a sim.Channel, panicking on one in every PanicEveryN
// transmissions — inside the simulation worker pool, where the per-strand
// salvage path must contain it as a dropout. Each transmission decides from a
// copy of its own random stream, so the same transmissions fail at any worker
// count and the inner channel draws exactly what it would unwrapped. Use a
// pointer so the injection count is shared.
type Channel struct {
	Inner       sim.Channel
	PanicEveryN int
	injected    atomic.Int64
}

// Transmit implements sim.Channel.
func (c *Channel) Transmit(rng *xrand.RNG, strand dna.Seq) dna.Seq {
	peek := *rng
	if pickItem(peek.Uint64(), c.PanicEveryN) {
		c.injected.Add(1)
		panic("chaos: injected channel panic")
	}
	return c.Inner.Transmit(rng, strand)
}

// Injected returns the number of panics the channel has injected.
func (c *Channel) Injected() int64 { return c.injected.Load() }

// Name implements sim.Channel.
func (c *Channel) Name() string { return "chaos(" + c.Inner.Name() + ")" }

// Algorithm wraps a recon.Algorithm, panicking on one in every PanicEveryN
// clusters, picked by a hash of the cluster's reads — inside the
// reconstruction worker pool, where the per-cluster salvage path must contain
// it as an erasure. Use a pointer so the injection count is shared.
type Algorithm struct {
	Inner       recon.Algorithm
	PanicEveryN int
	injected    atomic.Int64
}

// Reconstruct implements recon.Algorithm.
func (a *Algorithm) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	if pickItem(hashReads(reads), a.PanicEveryN) {
		a.injected.Add(1)
		panic("chaos: injected reconstruction panic")
	}
	return a.Inner.Reconstruct(reads, targetLen)
}

// Injected returns the number of panics the algorithm has injected.
func (a *Algorithm) Injected() int64 { return a.injected.Load() }

// Name implements recon.Algorithm.
func (a *Algorithm) Name() string { return "chaos(" + a.Inner.Name() + ")" }
