package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"sort"
	"sync"
	"time"
	"unsafe"

	"dnastore/internal/archive"
	"dnastore/internal/cluster"
	"dnastore/internal/core"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
)

// Tracing records spans from the benchmark's side of every layer boundary,
// never inside the program: decorators on the Simulator, Clusterer and
// Reconstructor stage interfaces and on recon.Algorithm, the metered
// io.Reader/io.Writer, the archive checkpoint hook, and the obs
// StageBegin/StageEnd events for the codec stages (encode, demux, decode),
// which have no interface to wrap. Spans stay in memory and are written out
// when the benchmark ends.

// span is one call across a layer boundary.
type span struct {
	layer      string
	start, end time.Duration // since the tracer's epoch; end < 0 while open
	parent     int32         // enclosing span, -1 for a phase root
	volume     int64         // volume id when the call carries one, else -1
}

// stageLayers are the pipeline stages whose spans are the direct children
// of a phase root: the operands of core.overlap and core.self_s.
var stageLayers = []string{"encode", "sim", "demux", "cluster", "recon", "decode"}

// obsLayers maps the obs stage names of the codec stages to span layers.
// The other stages are traced through their interfaces instead.
var obsLayers = map[string]string{"encode": "encode", "demux": "demux", "decode": "decode"}

// accuracyGamma is the Rashtchian accuracy threshold: a true cluster counts
// as recovered when one output cluster holds at least this share of its
// reads and nothing else.
const accuracyGamma = 0.9

// tracer holds one traced phase: a root span (an operation, or the archive
// build) and everything recorded beneath it.
type tracer struct {
	epoch time.Time
	truth *truth
	reg   *obs.Registry // the traced pipeline's metrics sink, carrying the stage hook

	mu    sync.Mutex
	spans []span
	root  int32
	open  map[string][]int32 // obs stage events awaiting their end, FIFO per stage
	owner map[*dna.Seq]int32 // cluster slice → enclosing reconstruct span
	work  work               // counted at the same boundaries as the spans
	// clusterings holds each volume's clustering (-1 for a batch run). A
	// volume decoded twice — an archive lease taken over mid-decode — must
	// cluster the same way both times and counts once.
	clusterings map[int64]clustering
	problems    []string
}

// work is what the traced layers did, counted where it happened.
type work struct {
	strands, reads     int64 // simulator in, out
	consensus, perfect int64
	intakeWait         time.Duration // metered reader, blocked between volumes
	// Archive workers' volume decisions: committed, skipped as committed
	// by the other worker, and abandoned after losing the lease mid-decode.
	committed, skipped, abandoned int64
}

func (w *work) add(o work) {
	w.strands += o.strands
	w.reads += o.reads
	w.consensus += o.consensus
	w.perfect += o.perfect
	w.committed += o.committed
	w.skipped += o.skipped
	w.abandoned += o.abandoned
}

// clustering is one clustering call's work and its score against the
// ground truth.
type clustering struct {
	reads, clusters, editCalls, merges int64
	cheapMerges                        int64   // merge decisions settled by signature distance alone
	recovered, origins                 float64 // accuracy numerator and denominator
}

func (c *clustering) add(o clustering) {
	c.reads += o.reads
	c.clusters += o.clusters
	c.editCalls += o.editCalls
	c.merges += o.merges
	c.cheapMerges += o.cheapMerges
	c.recovered += o.recovered
	c.origins += o.origins
}

// clustered sums the clusterings, one per volume.
func (t *tracer) clustered() clustering {
	var c clustering
	for _, v := range t.clusterings {
		c.add(v)
	}
	return c
}

// addIntake records a metered reader's intake wait. Nil-safe.
func (t *tracer) addIntake(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.work.intakeWait += d
	t.mu.Unlock()
}

// addRestore records an archive worker's volume decisions. Nil-safe.
func (t *tracer) addRestore(r archive.WorkerResult) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.work.committed += int64(r.Committed())
	t.work.skipped += int64(r.Skipped)
	t.work.abandoned += int64(r.Abandoned)
	t.mu.Unlock()
}

func newTracer(tr *truth) *tracer {
	t := &tracer{
		epoch: time.Now(),
		truth: tr,
		reg:   obs.NewRegistry(),
		root:  -1,
		open:  map[string][]int32{},
		owner: map[*dna.Seq]int32{},

		clusterings: map[int64]clustering{},
	}
	t.reg.OnEvent(t.stageEvent)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// phase opens the root span; the returned func closes it. Nil-safe, so
// untraced code paths call it unconditionally.
func (t *tracer) phase(layer string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layer, start: t.now(), end: -1, parent: -1, volume: -1})
	id := int32(len(t.spans) - 1)
	t.root = id
	t.mu.Unlock()
	return func() { t.finish(id) }
}

// start opens a span under the root and returns its id.
func (t *tracer) start(layer string, volume int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, start: t.now(), end: -1, parent: t.root, volume: volume})
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// leaf records a finished span under the root. Nil-safe: the I/O meters
// and the checkpoint hook call it in untraced runs too.
func (t *tracer) leaf(layer string, t0, t1 time.Time, volume int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layer, start: t0.Sub(t.epoch), end: t1.Sub(t.epoch), parent: t.root, volume: volume})
	t.mu.Unlock()
}

// stageEvent is the obs hook. Events carry the stage name but no call
// identity, so concurrent calls of one stage pair their begin and end
// first-in first-out: per-layer busy sums and the covered intervals are
// exact, while the boundaries of two overlapping calls may be swapped.
func (t *tracer) stageEvent(ev obs.Event) {
	layer, ok := obsLayers[ev.Stage]
	if !ok {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case obs.StageBegin:
		t.spans = append(t.spans, span{layer: layer, start: now, end: -1, parent: t.root, volume: -1})
		t.open[layer] = append(t.open[layer], int32(len(t.spans)-1))
	case obs.StageEnd:
		if q := t.open[layer]; len(q) > 0 {
			t.spans[q[0]].end = now
			t.open[layer] = q[1:]
		}
	}
}

// pipeline returns a copy of p whose stages report to t. Each decorator
// also implements the optional interface the runtime type-asserts
// (core.VolumeSimulator, core.VolumeClusterer, recon.ScratchReconstructor)
// and delegates to it, so the traced run does exactly the untraced run's
// work: a wrapper that hid VolumeSimulator would give every volume the same
// noise.
func (t *tracer) pipeline(p *core.Pipeline) *core.Pipeline {
	q := *p
	q.Simulator = tracedSimulator{inner: p.Simulator, t: t}
	q.Clusterer = tracedClusterer{inner: p.Clusterer, t: t}
	rec := p.Reconstructor
	if ar, ok := rec.(core.AlgorithmReconstructor); ok {
		ar.Algorithm = tracedAlgorithm{inner: ar.Algorithm, t: t}
		rec = ar
	}
	q.Reconstructor = tracedReconstructor{inner: rec, t: t}
	q.Metrics = t.reg
	return &q
}

type tracedSimulator struct {
	inner core.Simulator
	t     *tracer
}

func (s tracedSimulator) Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error) {
	id := s.t.start("sim", -1)
	reads, err := s.inner.Simulate(ctx, strands)
	s.t.finish(id)
	s.t.simulated(strands, reads)
	return reads, err
}

func (s tracedSimulator) SimulateVolume(ctx context.Context, volume uint32, strands []dna.Seq) ([]sim.Read, error) {
	vs, ok := s.inner.(core.VolumeSimulator)
	if !ok {
		return s.Simulate(ctx, strands) // the runtime's own fallback
	}
	id := s.t.start("sim", int64(volume))
	reads, err := vs.SimulateVolume(ctx, volume, strands)
	s.t.finish(id)
	s.t.simulated(strands, reads)
	return reads, err
}

type tracedClusterer struct {
	inner core.Clusterer
	t     *tracer
}

func (c tracedClusterer) Cluster(ctx context.Context, reads []dna.Seq) (cluster.Result, error) {
	id := c.t.start("cluster", -1)
	res, err := c.inner.Cluster(ctx, reads)
	c.t.finish(id)
	c.t.cluster(-1, reads, res)
	return res, err
}

func (c tracedClusterer) ClusterVolume(ctx context.Context, volume uint32, reads []dna.Seq) (cluster.Result, error) {
	vc, ok := c.inner.(core.VolumeClusterer)
	if !ok {
		return c.Cluster(ctx, reads) // the runtime's own fallback
	}
	id := c.t.start("cluster", int64(volume))
	res, err := vc.ClusterVolume(ctx, volume, reads)
	c.t.finish(id)
	c.t.cluster(int64(volume), reads, res)
	return res, err
}

type tracedReconstructor struct {
	inner core.Reconstructor
	t     *tracer
}

func (r tracedReconstructor) Name() string { return r.inner.Name() }

func (r tracedReconstructor) ReconstructAll(ctx context.Context, clusters [][]dna.Seq, targetLen int) ([]dna.Seq, error) {
	id := r.t.start("recon", -1)
	r.t.adopt(clusters, id)
	out, err := r.inner.ReconstructAll(ctx, clusters, targetLen)
	r.t.disown(clusters)
	r.t.finish(id)
	r.t.reconstructed(out)
	return out, err
}

// tracedAlgorithm records one span per cluster, parented to the
// ReconstructAll call that handed the cluster out.
type tracedAlgorithm struct {
	inner recon.Algorithm
	t     *tracer
}

func (a tracedAlgorithm) Name() string { return a.inner.Name() }

func (a tracedAlgorithm) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	t0 := time.Now()
	out := a.inner.Reconstruct(reads, targetLen)
	a.t.clusterSpan(reads, t0)
	return out
}

func (a tracedAlgorithm) ReconstructScratch(sc *recon.Scratch, reads []dna.Seq, targetLen int) dna.Seq {
	sr, ok := a.inner.(recon.ScratchReconstructor)
	if !ok {
		return a.Reconstruct(reads, targetLen) // the pool's own fallback
	}
	t0 := time.Now()
	out := sr.ReconstructScratch(sc, reads, targetLen)
	a.t.clusterSpan(reads, t0)
	return out
}

// adopt notes which reconstruct span owns each cluster; every cluster is a
// distinct slice, so its first element's address identifies it.
func (t *tracer) adopt(clusters [][]dna.Seq, id int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range clusters {
		if len(c) > 0 {
			t.owner[unsafe.SliceData(c)] = id
		}
	}
}

func (t *tracer) disown(clusters [][]dna.Seq) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range clusters {
		if len(c) > 0 {
			delete(t.owner, unsafe.SliceData(c))
		}
	}
}

func (t *tracer) clusterSpan(reads []dna.Seq, t0 time.Time) {
	t1 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.owner[unsafe.SliceData(reads)]
	if !ok {
		parent = t.root
	}
	t.spans = append(t.spans, span{layer: "recon.cluster", start: t0.Sub(t.epoch), end: t1.Sub(t.epoch), parent: parent, volume: -1})
}

// simulated counts the simulator's work and feeds the ground truth.
func (t *tracer) simulated(strands []dna.Seq, reads []sim.Read) {
	t.truth.add(strands, reads)
	t.mu.Lock()
	t.work.strands += int64(len(strands))
	t.work.reads += int64(len(reads))
	t.mu.Unlock()
}

// cluster records one clustering call's work and scores it against the
// ground truth, when every read can be traced to its source strand.
func (t *tracer) cluster(volume int64, reads []dna.Seq, res cluster.Result) {
	c := clustering{
		reads: int64(len(reads)), clusters: int64(len(res.Clusters)),
		editCalls: int64(res.Stats.EditDistanceCalls), merges: int64(res.Stats.Merges),
		cheapMerges: int64(res.Stats.CheapMerges),
	}
	if origins, ok := t.truth.origins(reads); ok {
		seen := make(map[int]struct{}, len(res.Clusters))
		for _, o := range origins {
			seen[o] = struct{}{}
		}
		c.origins = float64(len(seen))
		c.recovered = cluster.Accuracy(res.Clusters, origins, accuracyGamma, 0) * c.origins
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.clusterings[volume]; ok && prev != c {
		t.problems = append(t.problems, fmt.Sprintf("volume %d clustered differently when decoded again", volume))
	}
	t.clusterings[volume] = c
}

// reconstructed counts consensus strands and those equal to a source strand.
func (t *tracer) reconstructed(out []dna.Seq) {
	var made, perfect int64
	for _, s := range out {
		if s == nil {
			continue
		}
		made++
		if t.truth.isStrand(s) {
			perfect++
		}
	}
	t.mu.Lock()
	t.work.consensus += made
	t.work.perfect += perfect
	t.mu.Unlock()
}

// busy sums the durations of a layer's closed spans.
func (t *tracer) busy(layer string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.layer == layer && s.end >= 0 {
			d += s.end - s.start
		}
	}
	return d
}

// durations lists a layer's span durations in seconds.
func (t *tracer) durations(layer string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.layer == layer && s.end >= 0 {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// rootTimes returns the phase root's wall time, the sum of its stage spans,
// and its self time: the wall time no stage span covers.
func (t *tracer) rootTimes() (wall, stages, self time.Duration) {
	if t.root < 0 || t.spans[t.root].end < 0 {
		return 0, 0, 0
	}
	root := t.spans[t.root]
	wall = root.end - root.start
	var iv [][2]time.Duration
	for _, s := range t.spans {
		if s.parent != t.root || s.end < 0 || !isStage(s.layer) {
			continue
		}
		stages += s.end - s.start
		iv = append(iv, [2]time.Duration{max(s.start, root.start), min(s.end, root.end)})
	}
	return wall, stages, wall - union(iv)
}

func isStage(layer string) bool {
	for _, l := range stageLayers {
		if l == layer {
			return true
		}
	}
	return false
}

// union is the total length covered by a set of intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var cur [2]time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case x[0] > cur[1]:
			total += cur[1] - cur[0]
			cur = x
		case x[1] > cur[1]:
			cur[1] = x[1]
		}
	}
	if len(iv) > 0 {
		total += cur[1] - cur[0]
	}
	return total
}

// writeTSV writes the spans, one per line: id, parent, layer, volume, and
// start and end in nanoseconds since the phase's epoch.
func (t *tracer) writeTSV(w io.Writer, phase string) error {
	bw := bufio.NewWriter(w)
	for i, s := range t.spans {
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%d\t%s\t%d\t%d\t%d\n", phase, i, s.parent, s.layer, s.volume, s.start.Nanoseconds(), s.end.Nanoseconds()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// truth is the simulator's ground truth, kept only for traced runs: the
// source strand of every read and the set of source strands, both keyed by
// content hash, so a read is recognized wherever it reappears — in a
// volume shard after demux, or read back from an archive on disk.
type truth struct {
	seed    maphash.Seed
	mu      sync.Mutex
	origin  map[uint64]uint64 // read → source strand
	strands map[uint64]struct{}
}

func newTruth() *truth {
	return &truth{seed: maphash.MakeSeed(), origin: map[uint64]uint64{}, strands: map[uint64]struct{}{}}
}

func (tr *truth) hash(s dna.Seq) uint64 {
	return maphash.Bytes(tr.seed, unsafe.Slice((*byte)(unsafe.SliceData(s)), len(s)))
}

func (tr *truth) add(strands []dna.Seq, reads []sim.Read) {
	sh := make([]uint64, len(strands))
	for i, s := range strands {
		sh[i] = tr.hash(s)
	}
	rh := make([]uint64, len(reads))
	for i, r := range reads {
		rh[i] = tr.hash(r.Seq)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, h := range sh {
		tr.strands[h] = struct{}{}
	}
	for i, r := range reads {
		if r.Origin >= 0 && r.Origin < len(sh) {
			tr.origin[rh[i]] = sh[r.Origin]
		}
	}
}

// origins maps reads to their source strands; false if any read is unknown.
func (tr *truth) origins(reads []dna.Seq) ([]int, bool) {
	hs := make([]uint64, len(reads))
	for i, r := range reads {
		hs[i] = tr.hash(r)
	}
	out := make([]int, len(reads))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i, h := range hs {
		o, ok := tr.origin[h]
		if !ok {
			return nil, false
		}
		out[i] = int(o)
	}
	return out, true
}

func (tr *truth) isStrand(s dna.Seq) bool {
	h := tr.hash(s)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	_, ok := tr.strands[h]
	return ok
}

func (tr *truth) strandCount() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.strands)
}
