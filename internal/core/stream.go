package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

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
// encoding — the stage-overlap win StageTimes.Overlap reports.
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
	// Times holds the volume's per-stage busy times. Simulate is this
	// volume's even share of its pooling group's simulation time.
	Times StageTimes
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
	// Times sums per-stage busy time across volumes; Wall is the end-to-end
	// elapsed time. Total()/Wall > 1 means stages overlapped.
	Times StageTimes
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

// volumeWork is a volume between the group stage (encode+simulate+demux) and
// the per-volume stage (cluster+reconstruct+decode).
type volumeWork struct {
	id      uint32
	bytes   int
	strands int
	reads   []dna.Seq
	spilled int // group spill, attributed to the group's first volume
	times   StageTimes
	err     error // group-stage failure; downstream stages are skipped
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
	// the Metrics sink on exit); StreamResult.Times is its StageTimes
	// projection. Per-volume attribution still flows through the per-group
	// and per-volume registries inside processGroup/processVolume.
	runReg := p.newRunRegistry()
	runStart := time.Now() //dnalint:allow determinism -- StreamResult.Times telemetry; timings never influence the emitted bytes
	defer func() {
		res.Times = StageTimesOf(runReg.Snapshot())
		res.Times.Wall = time.Since(runStart)
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
	workCh := make(chan volumeWork, opts.InFlight)
	resultCh := make(chan VolumeResult, opts.InFlight)

	// Reader: split r into volumes, assemble fixed pooling groups, respect
	// the ticket bound. Closing groupCh ends the pipeline's intake.
	reader := exec.NewGroup(func(rec any) {
		fail(fmt.Errorf("%w: stream reader: %v", ErrStagePanic, rec))
	})
	reader.Go(func() {
		defer close(groupCh)
		var group []volumeChunk
		flush := func() bool {
			if len(group) == 0 {
				return true
			}
			select {
			case groupCh <- group:
				group = nil
				return true
			case <-ctx.Done():
				return false
			}
		}
		for id := uint32(0); ; id++ {
			if !tickets.Acquire(ctx) {
				return
			}
			buf := make([]byte, opts.VolumeBytes)
			n, err := io.ReadFull(r, buf)
			switch {
			case err == io.EOF || err == io.ErrUnexpectedEOF:
				// id 0 always exists: an empty archive still frames one
				// empty volume, so the output is self-describing.
				if n > 0 || id == 0 {
					group = append(group, volumeChunk{id: id, data: buf[:n]})
				}
				flush()
				return
			case err != nil:
				fail(fmt.Errorf("core: stream read at volume %d: %w", id, err))
				return
			}
			group = append(group, volumeChunk{id: id, data: buf})
			if len(group) == opts.PoolGroup && !flush() {
				return
			}
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
			buf := cur.Data
			if len(buf) != cur.Bytes {
				// Damaged or short volume: zero-fill its region so the
				// surviving volumes keep their archive offsets.
				padded := make([]byte, cur.Bytes)
				copy(padded, buf)
				buf = padded
			}
			if _, werr := w.Write(buf); werr != nil {
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
// the affected volumes (their volumeWork carries the error) instead of
// failing the run — except cancellation, which the caller observes via ctx.
// Counters record into a private per-group registry (concurrent groups
// never share counters mid-flight, so per-volume busy deltas are exact) and
// publish into sink at the end; sink's hooks fire live.
func (p *Pipeline) processGroup(ctx context.Context, group []volumeChunk, opts StreamOptions, sink *obs.Registry) []volumeWork {
	greg := obs.NewRegistry()
	greg.InheritHooks(sink)
	defer greg.Publish(sink)
	enc := greg.Stage(stageEncode)
	works := make([]volumeWork, len(group))
	var pooled []dna.Seq
	for i, ch := range group {
		works[i] = volumeWork{id: ch.id, bytes: len(ch.data)}
		enc.AddIn(int64(len(ch.data)))
		var strands []dna.Seq
		// The loop is serial, so this volume's encode time is the stage's
		// busy delta around its call.
		encBefore := enc.Busy()
		err := runStage(ctx, enc, opts.StageTimeout, func(_ context.Context) error {
			var eerr error
			strands, eerr = p.Codec.EncodeVolume(ch.id, opts.VolumeBytes, ch.data)
			return eerr
		})
		works[i].times.Encode = enc.Busy() - encBefore
		if err != nil {
			works[i].err = err
			continue
		}
		enc.AddOut(int64(len(strands)))
		works[i].strands = len(strands)
		pooled = append(pooled, strands...)
	}

	simSt := greg.Stage(stageSimulate)
	simSt.AddIn(int64(len(pooled)))
	var reads []sim.Read
	err := runStage(ctx, simSt, opts.StageTimeout, func(ctx context.Context) error {
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
	simDur := simSt.Busy()
	if err != nil {
		// The whole group's sample is lost (panic, stage timeout): each
		// member that still had a chance fails with this error. The run
		// continues; cancellation is handled by the caller via ctx.
		for i := range works {
			if works[i].err == nil {
				works[i].err = err
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
	dmx := greg.Stage(stageDemux)
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
			if !ok || j < 0 || j >= len(group) || works[j].err != nil {
				spilled++
				continue
			}
			shards[j] = append(shards[j], rd.Seq)
		}
		return nil
	})
	dmx.AddOut(int64(len(reads) - spilled))
	dmx.AddSpills(int64(spilled))
	works[0].spilled = spilled
	simShare := simDur / time.Duration(len(group))
	for i := range works {
		works[i].times.Simulate = simShare
		works[i].reads = shards[i]
	}
	return works
}

// processVolume runs one volume through cluster → reconstruct → decode,
// reusing the batch pipeline's attempt loop (escalation, retries,
// best-effort salvage) with the volume decoder. All failures are contained
// in the VolumeResult. Counters record into a private per-volume registry
// (published into sink at the end); VolumeResult.Times is its StageTimes
// projection on top of the group stage's attribution.
func (p *Pipeline) processVolume(ctx context.Context, wk volumeWork, opts StreamOptions, sink *obs.Registry) (out VolumeResult) {
	vreg := obs.NewRegistry()
	vreg.InheritHooks(sink)
	// Every return path carries an outcome record: the deferred finalize
	// classifies the result after Err/Report settle, and the volume's
	// cluster/reconstruct/decode busy times come from its own registry.
	defer func() {
		out.Times.add(StageTimesOf(vreg.Snapshot()))
		vreg.Publish(sink)
		out.finalizeOutcome(p.Codec.UnitDataBytes())
	}()
	vr := VolumeResult{
		ID:      wk.id,
		Bytes:   wk.bytes,
		Strands: wk.strands,
		Reads:   len(wk.reads),
		Times:   wk.times,
		Err:     wk.err,
	}
	vr.ClusterStats.Spilled = wk.spilled
	if vr.Err != nil {
		return vr
	}

	cluSt := vreg.Stage(stageCluster)
	cluSt.AddIn(int64(len(wk.reads)))
	var clu cluster.Result
	err := runStage(ctx, cluSt, opts.StageTimeout, func(ctx context.Context) error {
		var cerr error
		if vc, ok := p.Clusterer.(VolumeClusterer); ok {
			clu, cerr = vc.ClusterVolume(ctx, wk.id, wk.reads)
		} else {
			clu, cerr = p.Clusterer.Cluster(ctx, wk.reads)
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
		strands:   wk.strands,
		targetLen: p.Codec.StrandLen(),
		decode: func(ctx context.Context, recons []dna.Seq, o codec.DecodeOptions) ([]byte, codec.Report, error) {
			_, data, rep, derr := p.Codec.DecodeVolumeContext(ctx, wk.id, opts.VolumeBytes, recons, o)
			return data, rep, derr
		},
	}, opts.RunOptions, wk.reads, clu.Clusters, vreg)
	vr.Attempts = outcome.Attempts
	vr.Report = outcome.Report
	vr.Data = outcome.Data
	vr.Err = err
	return vr
}
