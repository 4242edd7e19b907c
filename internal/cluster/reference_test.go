package cluster

// The map-based reference implementations of the clustering round, the
// straggler sweep, the calibration rows and the table-based signature
// builder: the oracle the fast path (roundstate.go, sweepindex.go,
// sigbits.go) is held to. Any change here changes the definition of
// "correct" for the fast path: the identity tests run ClusterContext and
// ShardedContext on both engines (withReference selects this one) and
// compare them bit for bit.

import (
	"context"
	"sort"
	"time"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/exec"
	"dnastore/internal/xrand"
)

// referenceOracle builds referenceEngines through Options.engine.
type referenceOracle struct{}

// referenceEngine drives referenceRound and stragglerSweep with the state
// ClusterContext threaded through them: per-worker signature and sweep
// scratch, and the previous round's cluster count as the next round's size
// hint.
type referenceEngine struct {
	ctx                 context.Context
	reads               []dna.Seq
	uf                  *unionFind
	o                   Options
	thetaLow, thetaHigh int
	editScr             []edit.Scratch
	sigScr              []sigScratch
	sweepScr            []sweepScratch
	stats               *Stats
	rootHint            int
}

func (referenceOracle) newEngine(ctx context.Context, reads []dna.Seq, uf *unionFind, o Options, thetaLow, thetaHigh int, editScr []edit.Scratch, stats *Stats) roundEngine {
	return &referenceEngine{
		ctx: ctx, reads: reads, uf: uf, o: o,
		thetaLow: thetaLow, thetaHigh: thetaHigh,
		editScr: editScr, stats: stats,
		sigScr:   make([]sigScratch, o.Workers),
		sweepScr: make([]sweepScratch, o.Workers),
		rootHint: len(reads),
	}
}

func (e *referenceEngine) runRound(rng *xrand.RNG, round int) {
	e.rootHint = referenceRound(e.ctx, e.reads, e.uf, rng, e.o, round, e.thetaLow, e.thetaHigh, e.editScr, e.sigScr, e.stats, e.rootHint)
}

func (e *referenceEngine) runSweepPass(pass uint64) int {
	merged, nroots := stragglerSweep(e.ctx, e.reads, e.uf, e.o, pass, e.sweepScr, e.stats, e.rootHint)
	e.rootHint = nroots
	return merged
}

// withReference returns o set to run on the reference engine.
func withReference(o Options) Options {
	o.engine = referenceOracle{}
	return o
}

// referenceRound runs one clustering round with the map-based reference
// machinery, mutating uf and stats. rootHint is the previous round's cluster
// count (or len(reads) for the first round) and pre-sizes this round's root
// collection; the return value is this round's cluster count, the next
// round's hint.
func referenceRound(ctx context.Context, reads []dna.Seq, uf *unionFind, rng *xrand.RNG, o Options, round, thetaLow, thetaHigh int, editScr []edit.Scratch, sigScr []sigScratch, stats *Stats, rootHint int) int {
	// Fresh anchor and grams every round.
	anchor := dna.Random(rng, anchorLen)
	grams := newGramSet(xrand.Derive(o.Seed, uint64(round)+1), o.Mode, numGrams, o.GramLen)

	// One representative per current cluster, chosen deterministically:
	// roots are visited in ascending order.
	members := make(map[int][]int, rootHint)
	roots := make([]int, 0, rootHint)
	for i := range reads {
		root := uf.find(i)
		if _, seen := members[root]; !seen {
			roots = append(roots, root)
		}
		members[root] = append(members[root], i)
	}
	sort.Ints(roots)
	reps := make(map[int]int, len(roots)) // root -> representative read
	for _, root := range roots {
		ms := members[root]
		reps[root] = ms[rng.Intn(len(ms))]
	}

	// Partition clusters by the l bases following the anchor in the
	// representative; representatives lacking the anchor are hashed by
	// their prefix instead so they still participate.
	partitions := map[string][]int{} // key -> roots
	for _, root := range roots {
		r := reads[reps[root]]
		var key string
		if pos := r.Index(anchor); pos >= 0 && pos+anchorLen+partitionLen <= len(r) {
			key = "a:" + r[pos+anchorLen:pos+anchorLen+partitionLen].String()
		} else {
			n := partitionLen
			if n > len(r) {
				n = len(r)
			}
			key = "p:" + r[:n].String()
		}
		partitions[key] = append(partitions[key], root)
	}

	// Signatures for all representatives, in parallel.
	sigStart := time.Now()
	sigList := make([][]int32, len(roots))
	exec.ParallelForW(ctx, o.Workers, len(roots), func(w, i int) {
		sigList[i] = grams.signatureScratch(reads[reps[roots[i]]], &sigScr[w])
	})
	sigs := make(map[int][]int32, len(roots))
	for i, root := range roots {
		sigs[root] = sigList[i]
	}
	stats.SignatureTime += time.Since(sigStart)

	// Phase 1 (parallel, deterministic): each partition independently
	// proposes merges. Edit-distance decisions do not consult the
	// union-find, so the proposal set is a pure function of the seed.
	partStart := time.Now()
	keys := make([]string, 0, len(partitions))
	for k := range partitions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type proposal struct{ a, b int }
	proposalsPer := make([][]proposal, len(keys))
	editCalls := make([]int, len(keys))
	cheap := make([]int, len(keys))
	exec.ParallelForW(ctx, o.Workers, len(keys), func(w, ki int) {
		key := keys[ki]
		group := partitions[key]
		if len(group) < 2 {
			return
		}
		prng := xrand.Derive(o.Seed, fnv1a(key)^uint64(round))
		pairs := len(group) * (len(group) - 1) / 2
		stride := 1
		if pairs > maxPartitionPairs {
			stride = pairs/maxPartitionPairs + 1
		}
		for ai := 0; ai < len(group); ai++ {
			for bi := ai + 1; bi < len(group); bi++ {
				if stride > 1 && prng.Intn(stride) != 0 {
					continue
				}
				a, b := group[ai], group[bi]
				d := grams.distance(sigs[a], sigs[b])
				if d > thetaHigh {
					continue
				}
				if d <= thetaLow {
					proposalsPer[ki] = append(proposalsPer[ki], proposal{a, b})
					cheap[ki]++
					continue
				}
				editCalls[ki]++
				if _, ok := editScr[w].Within(reads[reps[a]], reads[reps[b]], o.EditThreshold); ok {
					proposalsPer[ki] = append(proposalsPer[ki], proposal{a, b})
				}
			}
		}
	})
	// Phase 2 (serial): apply proposals. The final connected components
	// are independent of application order.
	for ki := range proposalsPer {
		stats.EditDistanceCalls += editCalls[ki]
		for _, p := range proposalsPer[ki] {
			if uf.union(p.a, p.b) {
				stats.Merges++
			}
		}
		stats.CheapMerges += cheap[ki]
	}
	stats.ClusterTime += time.Since(partStart)
	return len(roots)
}

// sweepScratch is the per-worker reusable state of the straggler sweep: the
// edit-distance DP scratch, the signature first-occurrence table, the
// averaged-signature accumulators and the candidate-ranking buffer. Slot w
// is touched only by worker w (exec.ParallelForW), never shared.
type sweepScratch struct {
	es    edit.Scratch
	sig   sigScratch
	sum   []float32
	count []int32
	cands []sweepCand
}

// stragglerSweep merges small clusters into their nearest cluster when an
// edit-distance check confirms common origin. It returns the number of
// merges applied and the cluster count it observed (the caller's rootHint
// for the next pass). Edit-distance calls are accumulated into stats. scr
// holds one scratch per worker (len >= o.Workers), reused across passes.
func stragglerSweep(ctx context.Context, reads []dna.Seq, uf *unionFind, o Options, pass uint64, scr []sweepScratch, stats *Stats, rootHint int) (applied, nroots int) {
	members := make(map[int][]int, rootHint)
	roots := make([]int, 0, rootHint)
	for i := range reads {
		if i&0xfff == 0 && ctx.Err() != nil {
			return 0, rootHint // no merges: the caller's fixpoint loop stops and re-checks ctx
		}
		root := uf.find(i)
		if _, seen := members[root]; !seen {
			roots = append(roots, root)
		}
		members[root] = append(members[root], i)
	}
	sort.Ints(roots)
	// A straggler is any cluster clearly smaller than typical: at most half
	// the median cluster size (and size-2 clusters always qualify).
	sizes := make([]int, len(roots))
	for i, root := range roots {
		sizes[i] = len(members[root])
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	small := sorted[len(sorted)/2] * 2 / 3
	if small < 2 {
		small = 2
	}
	// The sweep ranks every cluster, so its signature needs to be far more
	// discriminative than the per-round ones: use triple the grams (the
	// rolling-hash signature makes the extra grams nearly free).
	grams := newGramSet(xrand.Derive(o.Seed, 0x5feeb+pass), o.Mode, 3*numGrams, o.GramLen)
	reps := make([]int, len(roots))
	for i, root := range roots {
		reps[i] = members[root][0]
	}
	// Candidate clusters are summarized by an *averaged* signature over up
	// to sweepSigReads members: the mean denoises individual read errors,
	// which is what makes the nearest-candidate ranking reliable even at
	// error rates where any single representative's signature is mangled.
	meanSigs := make([][]float32, len(roots))
	exec.ParallelForW(ctx, o.Workers, len(roots), func(w, i int) {
		sc := &scr[w]
		ms := members[roots[i]]
		n := len(ms)
		if n > sweepSigReads {
			n = sweepSigReads
		}
		// Accumulators come from the worker's scratch and must be re-zeroed
		// (a fresh make would zero them too; this just skips the allocation).
		if cap(sc.sum) < len(grams.codes) {
			sc.sum = make([]float32, len(grams.codes))
			sc.count = make([]int32, len(grams.codes))
		}
		sum := sc.sum[:len(grams.codes)]
		count := sc.count[:len(grams.codes)]
		for g := range sum {
			sum[g] = 0
			count[g] = 0
		}
		for _, m := range ms[:n] {
			sig := grams.signatureScratch(reads[m], &sc.sig)
			for g, v := range sig {
				if grams.mode == WGram {
					if v == wgramAbsent {
						continue
					}
					sum[g] += float32(v)
					count[g]++
				} else {
					sum[g] += float32(v)
					count[g]++
				}
			}
		}
		mean := make([]float32, len(grams.codes))
		for g := range mean {
			switch {
			case grams.mode == WGram && int(count[g])*2 <= n:
				mean[g] = -1 // absent in most members
			case count[g] == 0:
				mean[g] = -1
			default:
				mean[g] = sum[g] / float32(count[g])
			}
		}
		meanSigs[i] = mean
	})

	type merge struct{ a, b int }
	merges := make([][]merge, len(roots))
	editCalls := make([]int, len(roots))
	exec.ParallelForW(ctx, o.Workers, len(roots), func(w, i int) {
		if sizes[i] > small {
			return
		}
		sc := &scr[w]
		sig := grams.signatureScratch(reads[reps[i]], &sc.sig)
		// Rank the other clusters by distance to their averaged signature
		// and edit-check the closest few.
		cands := sc.cands[:0]
		for j := range roots {
			if j == i {
				continue
			}
			cands = append(cands, sweepCand{j, grams.meanDistance(sig, meanSigs[j])})
		}
		sc.cands = cands[:0]
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d != cands[b].d {
				return cands[a].d < cands[b].d
			}
			return cands[a].j < cands[b].j
		})
		// With many clusters the nearest-k ranking gets noisier; scale the
		// edit-checked candidate count with the cluster population.
		limit := sweepCandidates
		if scaled := len(roots) / 20; scaled > limit {
			limit = scaled
		}
		if limit > len(cands) {
			limit = len(cands)
		}
		bestJ, bestD := -1, o.EditThreshold+1
		for _, c := range cands[:limit] {
			editCalls[i]++
			if d, ok := sc.es.Within(reads[reps[i]], reads[reps[c.j]], o.EditThreshold); ok && d < bestD {
				bestJ, bestD = c.j, d
			}
		}
		if bestJ >= 0 {
			merges[i] = append(merges[i], merge{roots[i], roots[bestJ]})
		}
	})
	for i := range merges {
		stats.EditDistanceCalls += editCalls[i]
		for _, m := range merges[i] {
			if uf.union(m.a, m.b) {
				stats.Merges++
				applied++
			}
		}
	}
	return applied, len(roots)
}

// fnv1a hashes a string (for deterministic per-partition RNG streams).
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// sigScratch holds the reusable first-occurrence table behind signature
// computation. The table is 4^q entries — by far the largest allocation on
// the signature path — so parallel callers hold one sigScratch per worker
// and reuse it across every read that worker signs. The zero value is ready
// to use; a sigScratch must never be shared between goroutines.
type sigScratch struct {
	table []int32
}

// firstOccurrences returns a table of the first position of every q-gram in
// the read (-1 when absent), built in one pass. The per-call-allocating
// wrapper around firstOccurrencesInto.
func (gs gramSet) firstOccurrences(read dna.Seq) []int32 {
	var sc sigScratch
	return gs.firstOccurrencesInto(read, &sc)
}

// firstOccurrencesInto is firstOccurrences backed by reusable scratch: the
// returned table aliases sc.table and is only valid until the next call on
// the same scratch.
func (gs gramSet) firstOccurrencesInto(read dna.Seq, sc *sigScratch) []int32 {
	size := 1 << (2 * uint(gs.q))
	if cap(sc.table) < size {
		sc.table = make([]int32, size)
	}
	table := sc.table[:size]
	for i := range table {
		table[i] = -1
	}
	if len(read) < gs.q {
		return table
	}
	mask := uint32(size - 1)
	var code uint32
	for i, b := range read {
		code = (code<<2 | uint32(b&3)) & mask
		if i >= gs.q-1 {
			pos := i - gs.q + 1
			if table[code] < 0 {
				table[code] = int32(pos)
			}
		}
	}
	return table
}

// signature computes the representative's signature. For QGram entries are
// 0/1 presence flags; for WGram they are first-occurrence positions with
// wgramAbsent standing in for "absent".
func (gs gramSet) signature(read dna.Seq) []int32 {
	var sc sigScratch
	return gs.signatureScratch(read, &sc)
}

// signatureScratch is signature with the first-occurrence table drawn from
// per-worker scratch. The returned signature is always freshly allocated
// (callers retain signatures across the whole round); only the internal
// table is reused, so results are bit-identical to signature.
func (gs gramSet) signatureScratch(read dna.Seq, sc *sigScratch) []int32 {
	sig := make([]int32, len(gs.codes))
	table := gs.firstOccurrencesInto(read, sc)
	for i, code := range gs.codes {
		pos := table[code]
		if gs.mode == QGram {
			if pos >= 0 {
				sig[i] = 1
			}
		} else {
			sig[i] = pos
		}
	}
	return sig
}

// packQSig packs a reference q-gram presence signature (0/1 entries) into
// dst, gram i at word i/64 bit i%64 — the layout qsigBitsInto produces
// directly, so the packed kernels can be compared with the reference.
func packQSig(sig []int32, dst []uint64) {
	for w := range dst {
		dst[w] = 0
	}
	for i, v := range sig {
		if v != 0 {
			dst[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// autoThresholdRowsRef fills the probe-by-sample distance matrix with the
// reference signature machinery. Nil signatures (a panic-contained item)
// leave their entries at the -1 sentinel — their 1<<30 distance would
// otherwise size the histogram.
func autoThresholdRowsRef(ctx context.Context, reads []dna.Seq, grams gramSet, probes, sample []int, rows []int, workers int) {
	nProbe, nSample := len(probes), len(sample)
	scs := make([]sigScratch, workers)
	probeSigs := make([][]int32, nProbe)
	sampleSigs := make([][]int32, nSample)
	exec.ParallelForW(ctx, workers, nProbe+nSample, func(w, i int) {
		if i < nProbe {
			probeSigs[i] = grams.signatureScratch(reads[probes[i]], &scs[w])
		} else {
			sampleSigs[i-nProbe] = grams.signatureScratch(reads[sample[i-nProbe]], &scs[w])
		}
	})
	exec.ParallelForW(ctx, workers, nProbe, func(_, i int) {
		row := rows[i*nSample : (i+1)*nSample]
		pi := probes[i]
		psig := probeSigs[i]
		if psig == nil {
			return
		}
		for j, sj := range sample {
			if pi == sj || sampleSigs[j] == nil {
				continue
			}
			row[j] = grams.distance(psig, sampleSigs[j])
		}
	})
}
