package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/exec"
	"dnastore/internal/obs"
	"dnastore/internal/sim"
)

// The streaming runtime processes an archive as a sequence of fixed-size
// volumes (see the codec volume layer) flowing through bounded channels:
//
//	reader ──▶ encode+simulate (group workers) ──▶ demux ──▶
//	       cluster+reconstruct+decode (volume workers) ──▶ in-order writer
//
// Backpressure is a ticket semaphore: the reader takes one ticket per volume
// before touching the input, the writer returns it after the volume's bytes
// are written, so at most StreamOptions.InFlight volumes exist anywhere in
// the pipeline and peak memory is bounded by InFlight·(volume footprint)
// regardless of archive size. While volume k is clustering, volume k+1 is
// encoding — the stage-overlap win: the busy times in StreamResult.Stages
// sum to more than the run's wall time.
//
// Determinism is the headline guarantee: the output bytes are identical at
// any worker count, in-flight depth, and volume interleaving, because every
// per-volume computation depends only on (options, master seed, volume id,
// volume bytes) — never on scheduling. The demux stage routes pooled reads
// by content (their unmasked index prefix), pooling groups are fixed by
// volume id (group g = volumes [g·G, (g+1)·G)), and the writer restores id
// order before emitting bytes.

// StreamOptions configures RunStream. The embedded RunOptions applies per
// volume: retries, escalation and best-effort salvage run independently for
// each volume, so one damaged volume never costs the others their data.
type StreamOptions struct {
	RunOptions

	// VolumeBytes is the archive payload carried per volume. Defaults to
	// 1 MiB. Smaller volumes bound memory tighter and parallelize more;
	// larger volumes amortize per-volume overhead (header, index slice).
	VolumeBytes int
	// InFlight caps how many volumes may be resident in the pipeline at
	// once — the memory bound. Defaults to 2·PoolGroup and is clamped to at
	// least PoolGroup (a pooling group must fit in flight or the reader
	// could never complete one).
	InFlight int
	// PoolGroup is the number of consecutive volumes simulated as one pooled
	// sample: their strands are mixed, sequenced together, and routed back
	// to per-volume shards by the demux stage — the streaming analogue of a
	// multiplexed wetlab pool. Defaults to 1 (each volume sequenced alone).
	PoolGroup int
	// Workers is the goroutine count of each stage pool (encode+simulate
	// groups, and cluster+reconstruct+decode volumes). Defaults to
	// min(GOMAXPROCS, InFlight). Any value yields byte-identical output.
	Workers int
}

// withDefaults validates and fills in StreamOptions defaults.
func (o StreamOptions) withDefaults() StreamOptions {
	if o.VolumeBytes <= 0 {
		o.VolumeBytes = 1 << 20
	}
	if o.PoolGroup <= 0 {
		o.PoolGroup = 1
	}
	if o.InFlight <= 0 {
		o.InFlight = 2 * o.PoolGroup
	}
	if o.InFlight < o.PoolGroup {
		o.InFlight = o.PoolGroup
	}
	if o.Workers <= 0 {
		o.Workers = min(runtime.GOMAXPROCS(0), o.InFlight)
	}
	return o
}

// VolumeResult reports one volume's trip through the stream. Data is not
// retained: the writer emits the bytes and drops them so StreamResult stays
// O(volume count), not O(archive size).
type VolumeResult struct {
	// ID is the volume's position in the archive (0-based).
	ID uint32
	// Bytes is the number of archive payload bytes the volume carried.
	Bytes int
	// Strands, Reads and Clusters count the volume's intermediates (Reads
	// counts the reads demux routed to this volume, not the pooled total).
	Strands, Reads, Clusters int
	// Attempts counts reconstruct+decode attempts (see RunOptions.Retries).
	Attempts int
	// Report is the volume decoder's damage/repair summary.
	Report codec.Report
	// ClusterStats reports the volume's clustering work; Spilled carries the
	// demux spill attributed to this volume's pooling group.
	ClusterStats cluster.Stats
	// Outcome classifies the decode: decoded (clean), salvaged (best-effort
	// bytes with DamageBytes unverified), or failed (region zero-filled).
	Outcome VolumeOutcome
	// DamageBytes estimates how many of the volume's bytes are unverified or
	// wrong: 0 for a clean decode, Bytes for a failed volume, and the damaged
	// units' span for a localized salvage.
	DamageBytes int
	// Err is non-nil when the volume could not be recovered; its region of
	// the output is zero-filled and the run continues (see ErrVolumeDamaged).
	Err error

	// Data is the recovered payload, present only in transit between the
	// volume worker and the writer; the writer nils it after emitting.
	Data []byte
}

// StreamResult aggregates a RunStream execution.
type StreamResult struct {
	// Volumes reports every volume in id order, damaged ones included.
	Volumes []VolumeResult
	// BytesIn and BytesOut count archive bytes consumed and emitted. They
	// match even for damaged volumes (zero-fill keeps offsets aligned).
	BytesIn, BytesOut int64
	// FailedVolumes counts volumes with a non-nil Err; SalvagedVolumes
	// counts volumes that returned best-effort bytes (OutcomeSalvaged).
	FailedVolumes   int
	SalvagedVolumes int
	// Strands, Reads, Clusters, Attempts sum the per-volume counters.
	Strands, Reads, Clusters, Attempts int
	// ClusterStats sums the per-volume clustering work; Spilled is the total
	// number of reads the demux could not route.
	ClusterStats cluster.Stats
	// Stages holds the run's per-stage counters, demux included: the same
	// counters the run publishes into Pipeline.Metrics. Busy time sums
	// across concurrent volumes, so the stages' total can exceed the run's
	// wall time; by how much is the stage overlap.
	Stages []obs.StageSnapshot
}

// Degraded returns the volumes that did not decode cleanly (salvaged or
// failed), in id order — the per-volume records a coordinator audit or a
// user triaging a damaged archive needs.
func (r *StreamResult) Degraded() []VolumeResult {
	var out []VolumeResult
	for _, v := range r.Volumes {
		if v.Outcome != OutcomeDecoded {
			out = append(out, v)
		}
	}
	return out
}

// volumeChunk is a volume's raw payload on its way to the encoder.
type volumeChunk struct {
	id   uint32
	data []byte
}

// readVolumes is the chunking rule RunStream and EncodeVolumes share: it
// splits r into VolumeBytes-sized volumes and hands them to flush in pooling
// groups of PoolGroup consecutive volumes (group g = volumes [g·G, (g+1)·G)),
// the last group possibly short. Volume 0 always exists: an empty archive
// still frames one empty volume, so the output is self-describing. next runs
// before each volume is read. An error from next or flush ends the sweep and
// is returned verbatim; a read error is returned naming the caller (what).
func readVolumes(r io.Reader, opts StreamOptions, what string, next func() error, flush func([]volumeChunk) error) error {
	var group []volumeChunk
	for id := uint32(0); ; id++ {
		if err := next(); err != nil {
			return err
		}
		buf := make([]byte, opts.VolumeBytes)
		n, err := io.ReadFull(r, buf)
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			if n > 0 || id == 0 {
				group = append(group, volumeChunk{id: id, data: buf[:n]})
			}
			if len(group) == 0 {
				return nil
			}
			return flush(group)
		case err != nil:
			return fmt.Errorf("core: %s read at volume %d: %w", what, id, err)
		}
		group = append(group, volumeChunk{id: id, data: buf})
		if len(group) == opts.PoolGroup {
			if err := flush(group); err != nil {
				return err
			}
			group = nil
		}
	}
}

// RunStream pushes an archive of any size through the pipeline with bounded
// memory: the input is split into VolumeBytes-sized volumes that flow
// through encode → simulate → demux → cluster → reconstruct → decode
// concurrently (volume k+1 encodes while volume k clusters), and the
// recovered bytes are written to w in order. See StreamOptions.
//
// Error policy: per-volume failures (a stage panic, an unrecoverable decode)
// are contained — the volume's Err is recorded, its output region is
// zero-filled, and the run continues. RunStream itself returns an error only
// for configuration problems (including clustering options matching
// cluster.ErrOptions), cancellation, I/O failures on r or w, or —
// unless BestEffort is set — an ErrVolumeDamaged summarizing the failed
// volumes after all bytes are written.
func (p *Pipeline) RunStream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (res StreamResult, rerr error) {
	if p.Codec == nil || p.Simulator == nil || p.Clusterer == nil || p.Reconstructor == nil {
		return res, ErrNotConfigured
	}
	opts = opts.withDefaults()
	// The run's counters accumulate in a private registry (published into
	// the Metrics sink on exit); StreamResult.Stages is its snapshot.
	runReg := p.newRunRegistry()
	defer func() {
		res.Stages = runReg.Snapshot()
		runReg.Publish(p.Metrics)
	}()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failOnce sync.Once
	var runErr error
	fail := func(err error) {
		failOnce.Do(func() {
			runErr = err
			cancel()
		})
	}

	// tickets is the backpressure semaphore: reader takes, writer returns.
	tickets := exec.NewTickets(opts.InFlight)
	groupCh := make(chan []volumeChunk)
	workCh := make(chan VolumeWork, opts.InFlight)
	resultCh := make(chan VolumeResult, opts.InFlight)

	// Reader: split r into volumes, assemble fixed pooling groups, respect
	// the ticket bound. Closing groupCh ends the pipeline's intake.
	reader := exec.NewGroup(func(rec any) {
		fail(fmt.Errorf("%w: stream reader: %v", ErrStagePanic, rec))
	})
	reader.Go(func() {
		defer close(groupCh)
		err := readVolumes(r, opts, "stream", func() error {
			if !tickets.Acquire(ctx) {
				return ctx.Err()
			}
			return nil
		}, func(group []volumeChunk) error {
			select {
			case groupCh <- group:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		if err != nil && ctx.Err() == nil {
			fail(err) // a read error; the writer reports cancellation
		}
	})

	// Group workers: encode each member volume, simulate the pooled strands,
	// demux reads back to per-volume shards.
	groupWorkers := exec.NewGroup(func(rec any) {
		fail(fmt.Errorf("%w: stream group worker: %v", ErrStagePanic, rec))
	})
	groupWorkers.GoN(opts.Workers, func(int) {
		for group := range groupCh {
			if ctx.Err() != nil {
				return
			}
			for _, wk := range p.processGroup(ctx, group, opts, runReg) {
				select {
				case workCh <- wk:
				case <-ctx.Done():
					return
				}
			}
		}
	})
	groupWorkers.OnExit(func() { close(workCh) })

	// Volume workers: cluster, reconstruct and decode each volume
	// independently — per-volume panic isolation, retries and best-effort
	// salvage all come from the shared decode phase.
	volWorkers := exec.NewGroup(func(rec any) {
		fail(fmt.Errorf("%w: stream volume worker: %v", ErrStagePanic, rec))
	})
	volWorkers.GoN(opts.Workers, func(int) {
		for wk := range workCh {
			if ctx.Err() != nil {
				return
			}
			vr := p.processVolume(ctx, wk, opts, runReg)
			if errors.Is(vr.Err, cluster.ErrOptions) {
				// Clustering options it cannot run fail every volume
				// alike: a configuration error, not volume damage.
				fail(fmt.Errorf("core: stream volume %d: %w", vr.ID, vr.Err))
				return
			}
			select {
			case resultCh <- vr:
			case <-ctx.Done():
				return
			}
		}
	})
	volWorkers.OnExit(func() { close(resultCh) })

	// Writer: restore volume id order, emit bytes, return tickets. Runs on
	// the caller's goroutine; resultCh closing means every upstream
	// goroutine has exited (close chain: reader → groups → volumes).
	pending := make(map[uint32]VolumeResult, opts.InFlight)
	next := uint32(0)
	aborted := false
	for vr := range resultCh {
		if ctx.Err() != nil {
			aborted = true
		}
		if aborted {
			continue // keep draining so upstream goroutines can exit
		}
		pending[vr.ID] = vr
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if _, werr := w.Write(cur.Output()); werr != nil {
				fail(fmt.Errorf("core: stream write at volume %d: %w", cur.ID, werr))
				aborted = true
				break
			}
			cur.Data = nil
			res.Volumes = append(res.Volumes, cur)
			res.BytesIn += int64(cur.Bytes)
			res.BytesOut += int64(cur.Bytes)
			res.Strands += cur.Strands
			res.Reads += cur.Reads
			res.Clusters += cur.Clusters
			res.Attempts += cur.Attempts
			res.ClusterStats.Add(cur.ClusterStats)
			if cur.Err != nil {
				res.FailedVolumes++
			} else if cur.Outcome == OutcomeSalvaged {
				res.SalvagedVolumes++
			}
			tickets.Release()
			next++
		}
	}

	if runErr != nil {
		return res, runErr
	}
	if ctx.Err() != nil {
		return res, cancelErr(ctx, "stream")
	}
	if res.FailedVolumes > 0 && !opts.BestEffort {
		return res, fmt.Errorf("%w: %d of %d volumes failed", ErrVolumeDamaged, res.FailedVolumes, len(res.Volumes))
	}
	return res, nil
}

// processGroup encodes a pooling group's volumes, simulates the mixed pool,
// and demuxes the reads back into per-volume shards. Stage failures degrade
// the affected volumes (their VolumeWork carries the error) instead of
// failing the run — except cancellation, which the caller observes via ctx.
// Counters record straight into reg, whose hooks fire at every stage
// boundary.
func (p *Pipeline) processGroup(ctx context.Context, group []volumeChunk, opts StreamOptions, reg *obs.Registry) []VolumeWork {
	enc := reg.Stage(stageEncode)
	works := make([]VolumeWork, len(group))
	var pooled []dna.Seq
	for i, ch := range group {
		works[i] = VolumeWork{ID: ch.id, Bytes: len(ch.data)}
		enc.AddIn(int64(len(ch.data)))
		var strands []dna.Seq
		err := runStage(ctx, stageEncode, enc, opts.StageTimeout, func(_ context.Context) error {
			var eerr error
			strands, eerr = p.Codec.EncodeVolume(ch.id, opts.VolumeBytes, ch.data)
			return eerr
		})
		if err != nil {
			works[i].Err = err
			continue
		}
		enc.AddOut(int64(len(strands)))
		works[i].Strands = len(strands)
		pooled = append(pooled, strands...)
	}

	simSt := reg.Stage(stageSimulate)
	simSt.AddIn(int64(len(pooled)))
	var reads []sim.Read
	err := runStage(ctx, stageSimulate, simSt, opts.StageTimeout, func(ctx context.Context) error {
		var serr error
		// The per-group simulation seed derives from the group's first
		// volume id, so a group's reads depend only on (options, group) —
		// never on which other groups are in flight.
		if vs, ok := p.Simulator.(VolumeSimulator); ok {
			reads, serr = vs.SimulateVolume(ctx, group[0].id, pooled)
		} else {
			reads, serr = p.Simulator.Simulate(ctx, pooled)
		}
		return serr
	})
	if err != nil {
		// The whole group's sample is lost (panic, stage timeout): each
		// member that still had a chance fails with this error. The run
		// continues; cancellation is handled by the caller via ctx.
		for i := range works {
			if works[i].Err == nil {
				works[i].Err = err
			}
		}
		return works
	}
	simSt.AddOut(int64(len(reads)))

	// Demux: route each pooled read to its volume by unmasked index prefix.
	// Reads that are too short, carry an out-of-range index, or point at a
	// volume outside this group (a corrupted prefix can name any volume of
	// the archive) go to the spill count — never silently dropped, and never
	// migrated into a concurrently-processed group, which would make output
	// depend on scheduling.
	dmx := reg.Stage(stageDemux)
	dmx.AddIn(int64(len(reads)))
	capacity := p.Codec.VolumeCapacity(opts.VolumeBytes)
	first := group[0].id
	shards := make([][]dna.Seq, len(group))
	spilled := 0
	//dnalint:allow errflow -- the demux closure always returns nil; Time only relays it
	_ = dmx.Time(func() error {
		for i, rd := range reads {
			if i&1023 == 1023 && ctx.Err() != nil {
				break // unwinding; partial shards are fine, the run is over
			}
			id, ok := p.Codec.ReadVolumeID(rd.Seq, capacity)
			j := int(id) - int(first)
			if !ok || j < 0 || j >= len(group) || works[j].Err != nil {
				spilled++
				continue
			}
			shards[j] = append(shards[j], rd.Seq)
		}
		return nil
	})
	dmx.AddOut(int64(len(reads) - spilled))
	dmx.AddSpills(int64(spilled))
	works[0].Spilled = spilled
	for i := range works {
		works[i].Reads = shards[i]
	}
	return works
}

// processVolume runs one volume through cluster → reconstruct → decode,
// reusing the batch pipeline's attempt loop (retries, best-effort salvage)
// with the volume decoder. All failures are contained in the VolumeResult.
// Counters record straight into reg.
func (p *Pipeline) processVolume(ctx context.Context, wk VolumeWork, opts StreamOptions, reg *obs.Registry) (out VolumeResult) {
	// Every return path carries an outcome record: the deferred finalize
	// classifies the result after Err/Report settle.
	defer out.finalizeOutcome(p.Codec.UnitDataBytes())
	vr := VolumeResult{
		ID:      wk.ID,
		Bytes:   wk.Bytes,
		Strands: wk.Strands,
		Reads:   len(wk.Reads),
		Err:     wk.Err,
	}
	vr.ClusterStats.Spilled = wk.Spilled
	if vr.Err != nil {
		return vr
	}

	cluSt := reg.Stage(stageCluster)
	cluSt.AddIn(int64(len(wk.Reads)))
	var clu cluster.Result
	err := runStage(ctx, stageCluster, cluSt, opts.StageTimeout, func(ctx context.Context) error {
		var cerr error
		if vc, ok := p.Clusterer.(VolumeClusterer); ok {
			clu, cerr = vc.ClusterVolume(ctx, wk.ID, wk.Reads)
		} else {
			clu, cerr = p.Clusterer.Cluster(ctx, wk.Reads)
		}
		return cerr
	})
	if err != nil {
		vr.Err = err
		return vr
	}
	cluSt.AddOut(int64(len(clu.Clusters)))
	vr.Clusters = len(clu.Clusters)
	spilled := vr.ClusterStats.Spilled
	vr.ClusterStats = clu.Stats
	vr.ClusterStats.Spilled = spilled

	outcome, err := p.runDecodePhase(ctx, decodeJob{
		strands:   wk.Strands,
		targetLen: p.Codec.StrandLen(),
		decode: func(ctx context.Context, recons []dna.Seq, o codec.DecodeOptions) ([]byte, codec.Report, error) {
			_, data, rep, derr := p.Codec.DecodeVolumeContext(ctx, wk.ID, opts.VolumeBytes, recons, o)
			return data, rep, derr
		},
	}, opts.RunOptions, wk.Reads, clu.Clusters, reg)
	vr.Attempts = outcome.Attempts
	vr.Report = outcome.Report
	vr.Data = outcome.Data
	vr.Err = err
	return vr
}
