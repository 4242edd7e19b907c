package cluster

import (
	"context"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// TestFastPathMatchesReference is the central identity pin: the
// allocation-free fast path must produce byte-identical cluster memberships
// and identical decision counters (Merges, CheapMerges, EditDistanceCalls)
// to the map-based reference oracle, for both signature modes and across
// worker counts, including the auto-threshold configuration path. At 6 %
// error the pool leaves stragglers, so the comparison covers the straggler
// sweep as well as the rounds; the test asserts that the sweep edit-checked
// candidates in each mode.
func TestFastPathMatchesReference(t *testing.T) {
	reads, _ := makePool(t, 101, 150, 110, 6, 0.06)
	gmp := runtime.GOMAXPROCS(0)
	for _, mode := range []SignatureMode{QGram, WGram} {
		want := mustCluster(t, reads, withReference(Options{Mode: mode, Seed: 77, Workers: 1}))
		bare := mustCluster(t, reads, Options{Mode: mode, Seed: 77, Workers: 1, NoStragglerSweep: true})
		sweepCalls := want.Stats.EditDistanceCalls - bare.Stats.EditDistanceCalls
		t.Logf("mode=%v: %d reads, %d clusters, %d sweep edit calls, %d sweep merges",
			mode, len(reads), len(want.Clusters), sweepCalls, want.Stats.Merges-bare.Stats.Merges)
		if sweepCalls <= 0 {
			t.Fatalf("mode=%v: the straggler sweep made no edit calls", mode)
		}
		for _, workers := range []int{1, 4, gmp} {
			for _, ref := range []bool{false, true} {
				if ref && workers == 1 {
					continue // that's `want` itself
				}
				opts := Options{Mode: mode, Seed: 77, Workers: workers}
				if ref {
					opts = withReference(opts)
				}
				got := mustCluster(t, reads, opts)
				name := fmt.Sprintf("mode=%v ref=%v workers=%d", mode, ref, workers)
				if !reflect.DeepEqual(got.Clusters, want.Clusters) {
					t.Fatalf("%s: cluster memberships diverge from reference", name)
				}
				if got.Stats.Merges != want.Stats.Merges ||
					got.Stats.CheapMerges != want.Stats.CheapMerges ||
					got.Stats.EditDistanceCalls != want.Stats.EditDistanceCalls {
					t.Fatalf("%s: stats diverge: got {M:%d CM:%d ED:%d} want {M:%d CM:%d ED:%d}",
						name, got.Stats.Merges, got.Stats.CheapMerges, got.Stats.EditDistanceCalls,
						want.Stats.Merges, want.Stats.CheapMerges, want.Stats.EditDistanceCalls)
				}
			}
		}
	}
}

// TestFastPathMatchesReferenceManualThresholds covers the fixed-threshold
// configuration (no auto-calibration) plus a degenerate thetaHigh beyond
// WGramFar, which forces wgramDistanceWithin onto its embedded reference
// loop.
func TestFastPathMatchesReferenceManualThresholds(t *testing.T) {
	reads, _ := makePool(t, 103, 80, 100, 5, 0.05)
	for _, tc := range []struct {
		mode      SignatureMode
		low, high int
	}{
		{QGram, 3, 25},
		{WGram, 2, 40},
		{WGram, 2, WGramFar + 5}, // degenerate band: sentinel inside it
	} {
		opts := Options{Mode: tc.mode, ThetaLow: tc.low, ThetaHigh: tc.high, Seed: 9}
		want := mustCluster(t, reads, withReference(opts))
		got := mustCluster(t, reads, opts)
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Fatalf("mode=%v band=[%d,%d]: memberships diverge", tc.mode, tc.low, tc.high)
		}
		if got.Stats != want.Stats {
			// Timing fields differ; compare only decision counters.
			if got.Stats.Merges != want.Stats.Merges ||
				got.Stats.CheapMerges != want.Stats.CheapMerges ||
				got.Stats.EditDistanceCalls != want.Stats.EditDistanceCalls {
				t.Fatalf("mode=%v band=[%d,%d]: stats diverge", tc.mode, tc.low, tc.high)
			}
		}
	}
}

// TestFastPathShardedMatchesReference extends the identity pin through the
// sharded entry point, which copies Options per shard (the reference engine
// must propagate) and re-clusters shard unions.
func TestFastPathShardedMatchesReference(t *testing.T) {
	reads, _ := makePool(t, 105, 100, 110, 5, 0.04)
	for _, mode := range []SignatureMode{QGram, WGram} {
		want := mustSharded(t, reads, 3, withReference(Options{Mode: mode, Seed: 5}))
		got := mustSharded(t, reads, 3, Options{Mode: mode, Seed: 5})
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Fatalf("mode=%v: sharded memberships diverge from reference", mode)
		}
		if got.Stats.Merges != want.Stats.Merges ||
			got.Stats.EditDistanceCalls != want.Stats.EditDistanceCalls {
			t.Fatalf("mode=%v: sharded stats diverge", mode)
		}
	}
}

// TestFastPathMatchesReferenceAtScale holds the fast path to the reference
// on larger pools:
//
//   - 960, 9 600 and 38 400 reads (120·mult strands × 110 nt, 3% IID error,
//     coverage 8) pin the rounds at scale. The larger two lift the sweep's
//     candidate limit, max(sweepCandidates, clusters/20), above its floor
//     of 32, but their sweep finds nothing to edit-check: its counters
//     equal a NoStragglerSweep run's.
//   - The paper's noisy point at two seeds (700 strands × 128 nt, 6% IID
//     error, Poisson coverage 10: about 7 000 reads in 700 clusters, limit
//     35) pins the sweep. Its stragglers are edit-checked against
//     candidates past rank 32, so dropping clusters/20 from either
//     implementation breaks the comparison. The test asserts that the sweep
//     did that work, so these pools cannot silently stop exercising it.
func TestFastPathMatchesReferenceAtScale(t *testing.T) {
	type pool struct {
		name            string
		rng             *xrand.RNG // draws the strands
		strands, length int
		rate            float64
		coverage        sim.CoverageModel
		simSeed         uint64
		sweeps          bool // the sweep must edit-check candidates
	}
	var pools []pool
	for _, mult := range []int{1, 10, 40} {
		pools = append(pools, pool{fmt.Sprintf("3%% IID x%d", mult), xrand.Derive(7, 0x5ca1e+uint64(mult)),
			120 * mult, 110, 0.03, sim.FixedCoverage(8), 8, false})
	}
	for _, seed := range []uint64{1, 2} {
		pools = append(pools, pool{fmt.Sprintf("noisy point seed %d", seed), xrand.New(seed),
			700, 128, 0.06, sim.PoissonCoverage(10), seed + 1, true})
	}
	for _, p := range pools {
		src := make([]dna.Seq, p.strands)
		for i := range src {
			src[i] = dna.Random(p.rng, p.length)
		}
		reads, err := sim.SimulatePoolContext(context.Background(), src, sim.Options{
			Channel: sim.CalibratedIID(p.rate), Coverage: p.coverage, Seed: p.simSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		seqs := sim.Sequences(reads)
		opts := Options{Seed: 10}
		got := mustCluster(t, seqs, opts)
		want := mustCluster(t, seqs, withReference(opts))
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Errorf("%s (%d reads): cluster memberships differ from the reference", p.name, len(seqs))
		}
		g, w := got.Stats, want.Stats
		if g.Merges != w.Merges || g.CheapMerges != w.CheapMerges || g.EditDistanceCalls != w.EditDistanceCalls {
			t.Errorf("%s (%d reads): decision counters {M:%d CM:%d ED:%d}, reference {M:%d CM:%d ED:%d}",
				p.name, len(seqs), g.Merges, g.CheapMerges, g.EditDistanceCalls, w.Merges, w.CheapMerges, w.EditDistanceCalls)
		}
		if !p.sweeps {
			continue
		}
		opts.NoStragglerSweep = true
		bare := mustCluster(t, seqs, opts)
		sweepCalls := g.EditDistanceCalls - bare.Stats.EditDistanceCalls
		t.Logf("%s: %d reads, %d clusters, %d sweep edit calls", p.name, len(seqs), len(got.Clusters), sweepCalls)
		if sweepCalls <= 0 {
			t.Errorf("%s: the straggler sweep made no edit calls", p.name)
		}
		if len(got.Clusters)/20 <= sweepCandidates {
			t.Errorf("%s: %d clusters keep the candidate limit at its floor of %d", p.name, len(got.Clusters), sweepCandidates)
		}
	}
}

// TestPackedPartitionKeys proves the two invariants the fast path's
// partition grouping rests on: packed-key numeric order equals reference
// string-key order, and packedKeyHash equals fnv1a of the string key (the
// per-partition rng stream seed).
func TestPackedPartitionKeys(t *testing.T) {
	rng := xrand.New(42)
	type entry struct {
		packed uint64
		str    string
	}
	var entries []entry
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(maxPackedPartition + 1)
		bases := dna.Random(rng, n)
		prefix := rng.Intn(2) == 1
		tag := "a:"
		if prefix {
			tag = "p:"
		}
		e := entry{packPartKey(prefix, bases), tag + bases.String()}
		entries = append(entries, e)
		if got, want := packedKeyHash(e.packed), fnv1a(e.str); got != want {
			t.Fatalf("hash mismatch for %q: packed %#x, fnv1a %#x", e.str, got, want)
		}
	}
	packedOrder := append([]entry(nil), entries...)
	sort.Slice(packedOrder, func(i, j int) bool { return packedOrder[i].packed < packedOrder[j].packed })
	strOrder := append([]entry(nil), entries...)
	sort.Slice(strOrder, func(i, j int) bool { return strOrder[i].str < strOrder[j].str })
	for i := range packedOrder {
		if packedOrder[i].str != strOrder[i].str {
			t.Fatalf("order diverges at %d: packed says %q, string says %q",
				i, packedOrder[i].str, strOrder[i].str)
		}
	}
	// Injectivity on distinct keys: equal packed keys must mean equal strings.
	byPacked := map[uint64]string{}
	for _, e := range entries {
		if prev, ok := byPacked[e.packed]; ok && prev != e.str {
			t.Fatalf("collision: %q and %q both pack to %#x", prev, e.str, e.packed)
		}
		byPacked[e.packed] = e.str
	}
}

// TestFillRandomSeqMatchesDnaRandom pins the rng-consumption equivalence the
// scratch-backed anchor and gram draws depend on.
func TestFillRandomSeqMatchesDnaRandom(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		a := dna.Random(xrand.New(9), n)
		b := make(dna.Seq, n)
		fillRandomSeq(xrand.New(9), b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: fillRandomSeq diverges from dna.Random", n)
		}
	}
	// Stream position afterwards must match too.
	r1, r2 := xrand.New(9), xrand.New(9)
	_ = dna.Random(r1, 13)
	fillRandomSeq(r2, make(dna.Seq, 13))
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("rng stream position diverges after draw")
	}
}

// TestGramSetScratchMatchesNewGramSet pins the gram draw: newGramSet and the
// scratch's fill both give the codes of count grams drawn with dna.Random and
// packed first base most significant, and leave the rng where that draw
// leaves it.
func TestGramSetScratchMatchesNewGramSet(t *testing.T) {
	var gsc gramSetScratch
	for q := 1; q <= maxRollingQ; q++ {
		for _, count := range []int{0, 48, 144} {
			oracle := xrand.Derive(7, uint64(q))
			want := make([]uint32, count)
			for i := range want {
				for _, b := range dna.Random(oracle, q) {
					want[i] = want[i]<<2 | uint32(b)
				}
			}
			next := oracle.Uint64()
			rng, scratchRng := xrand.Derive(7, uint64(q)), xrand.Derive(7, uint64(q))
			gs := newGramSet(rng, WGram, count, q)
			gsc.fill(scratchRng, WGram, count, q)
			if !slices.Equal(gs.codes, want) || !slices.Equal(gsc.set.codes, want) {
				t.Fatalf("count=%d q=%d: gram codes diverge from packed dna.Random grams", count, q)
			}
			if rng.Uint64() != next || scratchRng.Uint64() != next {
				t.Fatalf("count=%d q=%d: rng stream position diverges after the draw", count, q)
			}
		}
	}
}

// TestSignatureIntoMatchesScratch pins the chain-indexed signature scan
// against the reference table-based builder, in both modes, including reads
// shorter than the gram length.
func TestSignatureIntoMatchesScratch(t *testing.T) {
	rng := xrand.New(55)
	var sc sigScratch
	for trial := 0; trial < 200; trial++ {
		mode := SignatureMode(trial % 2)
		q := 2 + rng.Intn(4)
		gs := newGramSet(rng, mode, 16+rng.Intn(64), q)
		var idx gramIndex
		idx.build(gs)
		read := dna.Random(rng, rng.Intn(150))
		want := gs.signatureScratch(read, &sc)
		got := make([]int32, len(gs.codes))
		idx.signatureInto(gs, read, got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("mode=%v q=%d len=%d: signatureInto diverges", mode, q, len(read))
		}
		if mode == QGram {
			wantBits := make([]uint64, sigWords(len(gs.codes)))
			packQSig(want, wantBits)
			gotBits := make([]uint64, sigWords(len(gs.codes)))
			idx.qsigBitsInto(gs, read, gotBits)
			if !reflect.DeepEqual(wantBits, gotBits) {
				t.Fatalf("q=%d len=%d: qsigBitsInto diverges from packed reference", q, len(read))
			}
		}
	}
}

// TestHammingPackedMatchesDistance pins the packed Hamming kernel against
// gramSet.distance on the signatures the words were packed from.
func TestHammingPackedMatchesDistance(t *testing.T) {
	rng := xrand.New(56)
	gs := gramSet{mode: QGram}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		a := make([]int32, n)
		b := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Intn(2))
			b[i] = int32(rng.Intn(2))
		}
		pa := make([]uint64, sigWords(n))
		pb := make([]uint64, sigWords(n))
		packQSig(a, pa)
		packQSig(b, pb)
		if got, want := hammingPacked(pa, pb), gs.distance(a, b); got != want {
			t.Fatalf("n=%d: hammingPacked=%d distance=%d", n, got, want)
		}
	}
}

// TestWgramDistanceWithinContract pins the early-exit kernel's contract
// against the reference distance: exact when the reference is within
// thetaHigh, and strictly above thetaHigh otherwise; bit-exact everywhere
// when thetaHigh >= WGramFar.
func TestWgramDistanceWithinContract(t *testing.T) {
	rng := xrand.New(57)
	gs := gramSet{mode: WGram}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(100)
		a := make([]int32, n)
		b := make([]int32, n)
		for i := range a {
			if rng.Intn(3) == 0 {
				a[i] = wgramAbsent
			} else {
				a[i] = int32(rng.Intn(120))
			}
			if rng.Intn(3) == 0 {
				b[i] = wgramAbsent
			} else {
				b[i] = int32(rng.Intn(120))
			}
		}
		want := gs.distance(a, b)
		for _, th := range []int{0, 5, 20, want - 1, want, want + 1, WGramFar, WGramFar + 10} {
			if th < 0 {
				continue
			}
			got := wgramDistanceWithin(a, b, th)
			if want <= th {
				if got != want {
					t.Fatalf("n=%d th=%d: got %d, reference %d (within band: must be exact)", n, th, got, want)
				}
			} else if got <= th {
				t.Fatalf("n=%d th=%d: got %d <= th but reference %d > th", n, th, got, want)
			}
			if th >= WGramFar && got != want {
				t.Fatalf("n=%d th=%d: degenerate band must be bit-exact: got %d, reference %d", n, th, got, want)
			}
		}
	}
}

// TestSigKernelsZeroAlloc pins the signature kernels at zero allocations per
// call after warmup.
func TestSigKernelsZeroAlloc(t *testing.T) {
	rng := xrand.New(58)
	gsQ := newGramSet(rng, QGram, 48, 4)
	gsW := newGramSet(rng, WGram, 48, 4)
	var idxQ, idxW gramIndex
	idxQ.build(gsQ)
	idxW.build(gsW)
	read := dna.Random(rng, 110)
	sig := make([]int32, 48)
	sig2 := make([]int32, 48)
	bits := make([]uint64, sigWords(48))
	bits2 := make([]uint64, sigWords(48))
	idxW.signatureInto(gsW, read, sig)
	idxW.signatureInto(gsW, dna.Random(rng, 110), sig2)
	idxQ.qsigBitsInto(gsQ, read, bits)
	idxQ.qsigBitsInto(gsQ, dna.Random(rng, 110), bits2)
	for name, f := range map[string]func(){
		"signatureInto":       func() { idxW.signatureInto(gsW, read, sig) },
		"qsigBitsInto":        func() { idxQ.qsigBitsInto(gsQ, read, bits) },
		"hammingPacked":       func() { hammingPacked(bits, bits2) },
		"wgramDistanceWithin": func() { wgramDistanceWithin(sig, sig2, 18) },
	} {
		if n := testing.AllocsPerRun(100, f); n > 0 {
			t.Errorf("%s allocates %.1f/op", name, n)
		}
	}
}

// TestRoundRunnerZeroAlloc pins the tentpole's allocation claim: once warm,
// a full clustering round on the fast path allocates nothing (single-worker
// dispatch; the parallel dispatcher's goroutines are outside the claim).
func TestRoundRunnerZeroAlloc(t *testing.T) {
	for _, mode := range []SignatureMode{QGram, WGram} {
		reads, _ := makePool(t, 109, 60, 110, 5, 0.03)
		o, err := Options{Mode: mode, ThetaLow: 2, ThetaHigh: 18, EditThreshold: 14, Workers: 1, Seed: 11}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		uf := newUnionFind(len(reads))
		var stats Stats
		editScr := make([]edit.Scratch, 1)
		rr := newRoundRunner(t.Context(), reads, uf, o, o.ThetaLow, o.ThetaHigh, editScr, &stats)
		rng := xrand.New(o.Seed)
		for round := 0; round < 6; round++ { // warmup: buffers reach steady size
			rr.runRound(rng, round)
		}
		round := 6
		if n := testing.AllocsPerRun(10, func() {
			rr.runRound(rng, round)
			round++
		}); n > 0 {
			t.Errorf("mode=%v: steady-state runRound allocates %.1f/op", mode, n)
		}
	}
}

// TestSweepPassZeroAlloc extends the pin to the straggler sweep: once warm, a
// single-worker sweep pass allocates nothing. The pool, 720 reads at 6 %
// error, leaves stragglers after the rounds; warming runs the pass to its
// fixpoint, so every measured pass sees the same clusters.
func TestSweepPassZeroAlloc(t *testing.T) {
	for _, mode := range []SignatureMode{QGram, WGram} {
		reads, _ := makePool(t, 113, 120, 110, 6, 0.06)
		o, err := Options{Mode: mode, ThetaLow: 2, ThetaHigh: 18, EditThreshold: 14, Workers: 1, Seed: 11}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		uf := newUnionFind(len(reads))
		var stats Stats
		editScr := make([]edit.Scratch, 1)
		rr := newRoundRunner(t.Context(), reads, uf, o, o.ThetaLow, o.ThetaHigh, editScr, &stats)
		rng := xrand.New(o.Seed)
		for round := 0; round < o.Rounds; round++ {
			rr.runRound(rng, round)
		}
		for pass := 0; pass < 8 && rr.runSweepPass(0) > 0; pass++ {
		}
		calls := stats.EditDistanceCalls
		rr.runSweepPass(0)
		if calls == stats.EditDistanceCalls {
			t.Fatalf("mode=%v: the sweep pass evaluated no straggler", mode)
		}
		if n := testing.AllocsPerRun(10, func() { rr.runSweepPass(0) }); n > 0 {
			t.Errorf("mode=%v: steady-state runSweepPass allocates %.1f/op", mode, n)
		}
	}
}

// BenchmarkClusterStage times the full clustering call on 600 strands ×
// coverage 8 = 4800 reads of ~110 bases, fast path vs reference.
func BenchmarkClusterStage(b *testing.B) {
	reads, _ := makePool(b, 10, 600, 110, 8, 0.03)
	for _, ref := range []bool{false, true} {
		name := "fast"
		if ref {
			name = "reference"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := Options{Seed: 13, Workers: 1}
				if ref {
					opts = withReference(opts)
				}
				mustCluster(b, reads, opts)
			}
		})
	}
}

// TestCalibScreenMatchesScan pins the screened nearest-neighbour search to
// the sequential scan it stands in for: on each pool, for every calibration
// probe at a spread of diff medians, a value calibNearestScreened resolves
// equals calibNearestScan's. The singleton pool resolves nothing, since no
// probe has a same-strand partner within the screen band.
func TestCalibScreenMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		strands  int
		length   int
		coverage int
		rate     float64
	}{
		{201, 120, 110, 6, 0.03},
		{202, 60, 100, 5, 0.08},
		{203, 200, 150, 4, 0.01},
		{204, 40, 60, 8, 0.05},
		{205, 150, 110, 1, 0.03},
	} {
		reads, _ := makePool(t, tc.seed, tc.strands, tc.length, tc.coverage, tc.rate)
		// The probes and sample autoEditThreshold draws.
		perm := xrand.Derive(tc.seed, 0xc0f3).Perm(len(reads))
		probes := perm[:min(48, len(reads))]
		sample := perm[len(perm)-min(2000, len(reads)):]
		sampleBits := make([]calibPresence, len(sample))
		for j, sj := range sample {
			calibPresenceOf(reads[sj], &sampleBits[j])
		}
		var pb calibPresence
		var es edit.Scratch
		resolved := 0
		for _, pi := range probes {
			for _, median := range []int{3, 8, 20, 45, 70} {
				got, done := calibNearestScreened(reads, pi, sample, sampleBits, median, &pb, &es)
				if !done {
					continue
				}
				resolved++
				if want := calibNearestScan(reads, pi, sample, median, &es); got != want {
					t.Fatalf("pool %d, probe %d, median %d: screened search = %d, scan = %d", tc.seed, pi, median, got, want)
				}
			}
		}
		if (resolved == 0) != (tc.coverage == 1) {
			t.Errorf("pool %d: the screen resolved %d probe-median pairs", tc.seed, resolved)
		}
	}
}

// TestCalibFilterSoundness checks the presence counting-lemma screen
// directly on random pairs: whenever the filter would skip a pair at band
// k, the banded edit-distance call it replaces must return !ok.
func TestCalibFilterSoundness(t *testing.T) {
	rng := xrand.New(77)
	var es edit.Scratch
	var pa, pb calibPresence
	for trial := 0; trial < 2000; trial++ {
		a := dna.Random(rng, 20+rng.Intn(120))
		b := dna.Random(rng, 20+rng.Intn(120))
		if trial%3 == 0 {
			// Related pair: mutate a few bases so near-threshold bands occur.
			b = append(dna.Seq(nil), a...)
			for m := rng.Intn(8); m >= 0; m-- {
				b[rng.Intn(len(b))] = dna.Base(rng.Intn(dna.NumBases))
			}
		}
		da := calibPresenceOf(a, &pa)
		calibPresenceOf(b, &pb)
		k := rng.Intn(40)
		if da == 0 || k*calibQ >= da {
			continue
		}
		inter := 0
		for w := range pa {
			inter += bits.OnesCount64(pa[w] & pb[w])
		}
		if inter >= da-k*calibQ {
			continue // filter passes the pair through; nothing to check
		}
		if d, ok := es.Within(a, b, k); ok {
			t.Fatalf("trial %d: filter skipped pair with ed %d <= k %d (inter %d, da %d)", trial, d, k, inter, da)
		}
	}
}

// TestAutoThresholdRowsFastMatchesReference pins the fast probe-by-sample
// distance matrix against the reference pass for both modes and several
// worker counts, including the bit-packed QGram scoring.
func TestAutoThresholdRowsFastMatchesReference(t *testing.T) {
	reads, _ := makePool(t, 211, 80, 110, 5, 0.04)
	for _, mode := range []SignatureMode{QGram, WGram} {
		grams := newGramSet(xrand.Derive(31, 0xc0f1), mode, 48, 4)
		rng := xrand.Derive(31, 0xc0f2)
		perm := rng.Perm(len(reads))
		probes := perm[:32]
		sample := perm[len(perm)-200:]
		ref := make([]int, len(probes)*len(sample))
		for i := range ref {
			ref[i] = -1
		}
		autoThresholdRowsRef(context.Background(), reads, grams, probes, sample, ref, 1)
		for _, workers := range []int{1, 4} {
			got := make([]int, len(probes)*len(sample))
			for i := range got {
				got[i] = -1
			}
			autoThresholdRowsFast(context.Background(), reads, grams, probes, sample, got, workers)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("mode %v workers %d: fast rows differ from reference", mode, workers)
			}
		}
	}
}
