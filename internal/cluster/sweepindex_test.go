package cluster

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// noisyPointReads simulates the paper's noisy point at test scale: 700
// random 128-nt strands through 6 % IID error at Poisson coverage 10, about
// 7 000 reads in 700 clusters, so the sweep's candidate limit is 35.
func noisyPointReads(t testing.TB, seed uint64) []dna.Seq {
	t.Helper()
	rng := xrand.New(seed)
	src := make([]dna.Seq, 700)
	for i := range src {
		src[i] = dna.Random(rng, 128)
	}
	reads, err := sim.SimulatePoolContext(context.Background(), src, sim.Options{
		Channel: sim.CalibratedIID(0.06), Coverage: sim.PoissonCoverage(10), Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Sequences(reads)
}

// TestSweepEpsilonCoversWorstCaseRows checks each mode's screen against
// worst-case rows, where nearly every float32 operation rounds.
//
// QGram: the screen key is exact, so the rows check the premise that lets
// the band shrink to the tie group at T₀. Each row is a cluster of n members
// with n in {3, 5, 6}, so the means k/n are not dyadic; even rows hold means
// in [0.5, 1] and odd rows in [0, 0.5], which puts meanDistance's terms near
// 1 against the straggler that holds every sweep gram. A second straggler
// holds a random half of the grams. For every row the screen must return
// sweepKeyScale·R as an integer, computed here from the member counts, and
// meanDistance must lie within its rounding bound of R, a bound below 1/120,
// half the gap between distinct values of R.
//
// WGram: the test sums the terms in float64 (exact to about 10⁻¹¹ here),
// bounds both float32 forms with γₙ·Σ|xᵢ|, and requires that bound to be
// within ε and the screen's d̃ within it of meanDistance's d. Its rows mix in
// grams absent from the mean, whose wgramCap terms meanDistance adds in gram
// order and the screen adds last; the family ends with the worst row of all:
// every drift capped, Σ|xᵢ| = n·wgramCap.
func TestSweepEpsilonCoversWorstCaseRows(t *testing.T) {
	const n, rows = sweepGrams, 200
	const u = f32Unit
	gamma := float64(sweepGamma)

	t.Run("mode=q-gram", func(t *testing.T) {
		// meanDistance's bound: two roundings per term in [0, 1], then a
		// float32 sum of n such terms.
		bound := gamma*n + 2*u*n
		if bound >= 1.0/(2*sweepKeyScale) {
			t.Fatalf("meanDistance's rounding bound %.4g is not below 1/%d", bound, 2*sweepKeyScale)
		}
		rng := xrand.New(62)
		sw := &sweepIndex{}
		sw.gs.set = gramSet{mode: QGram, codes: make([]uint32, n)}
		sw.meanBuf = make([]float32, rows*n)
		sw.meanOK = make([]bool, rows)
		sw.planes = make([]planeRow, rows)
		sw.countSum = make([]int32, rows)
		sw.keyScale = make([]int32, rows)
		counts := make([][]int, rows)
		for j := 0; j < rows; j++ {
			c := []int{3, 5, 6}[rng.Intn(3)]
			lo, hi := (c+1)/2, c // k/c in [0.5, 1]
			if j%2 == 1 {
				lo, hi = 0, c/2 // k/c in [0, 0.5]
			}
			k := make([]int, n)
			for g := range k {
				k[g] = lo + rng.Intn(hi-lo+1)
			}
			counts[j] = k
			for m := 0; m < c; m++ { // member m holds gram g iff m < k_g
				var member [sweepWords]uint64
				for g, kg := range k {
					if m < kg {
						member[g>>6] |= 1 << (uint(g) & 63)
					}
				}
				addPlanes(&sw.planes[j], &member)
			}
			sw.meanOK[j] = true
			sw.countSum[j] = planesMeanRow(&sw.planes[j], c, sw.meanRow(j))
			sw.keyScale[j] = int32(sweepKeyScale / c)
		}
		full := make([]int32, n)
		half := make([]int32, n)
		for g := range full {
			full[g] = 1
			half[g] = int32(rng.Intn(2))
		}
		for _, sig := range [][]int32{full, half} {
			var ws sweepWorker
			keys := sw.screen(&ws, sig, rows)
			worst := 0.0
			for j := 0; j < rows; j++ {
				c := sweepKeyScale / int(sw.keyScale[j])
				num := 0 // c·R = c·|P| + Σ_g k_g·(1 − 2·sig_g)
				for g, kg := range counts[j] {
					num += c*int(sig[g]) + kg*(1-2*int(sig[g]))
				}
				if want := num * (sweepKeyScale / c); keys[j] != float32(want) {
					t.Fatalf("row %d: screen key %v, want %d·R = %d", j, keys[j], sweepKeyScale, want)
				}
				R := float64(num) / float64(c)
				d := float64(sw.gs.set.meanDistance(sig, sw.meanRow(j)))
				diff := math.Abs(d - R)
				if diff > bound {
					t.Fatalf("row %d: meanDistance %v is %.3g from R = %v, beyond its bound %.3g", j, d, diff, R, bound)
				}
				worst = math.Max(worst, diff)
			}
			t.Logf("largest |d − R| over %d rows %.3g; bound %.4g, separation premise 1/%d", rows, worst, bound, 2*sweepKeyScale)
		}
	})

	t.Run("mode=w-gram", func(t *testing.T) {
		rng := xrand.New(61)
		quotient := func(lo, hi float64) float32 { // k/c in [lo, hi]
			c := []int{3, 5, 6}[rng.Intn(3)]
			k := int(math.Ceil(lo*float64(c))) + rng.Intn(int(math.Floor(hi*float64(c))-math.Ceil(lo*float64(c)))+1)
			return float32(k) / float32(c)
		}
		sw := &sweepIndex{}
		sw.gs.set = gramSet{mode: WGram, codes: make([]uint32, n)}
		sw.meanBuf = make([]float32, rows*n)
		sw.meanOK = make([]bool, rows)
		sig := make([]int32, n)
		for g := range sig {
			sig[g] = 60 + int32(rng.Intn(60))
		}
		for j := 0; j < rows; j++ {
			sw.meanOK[j] = true
			row := sw.meanRow(j)
			for g := range row {
				switch {
				case j == rows-1 || rng.Intn(8) == 0:
					row[g] = float32(sig[g]) - 30 // drift capped at wgramCap
				case rng.Intn(8) == 0:
					row[g] = -1 // one-sided: the screen adds its wgramCap last
				default:
					row[g] = float32(sig[g]) - quotient(20, 24) // drift just below the cap
				}
			}
		}
		sw.buildPostings(rows, n)
		var ws sweepWorker
		dtil := sw.screen(&ws, sig, rows)
		eps := sweepEps(WGram)
		worst := 0.0
		for j := 0; j < rows; j++ {
			row := sw.meanRow(j)
			d := float64(sw.gs.set.meanDistance(sig, row))
			var exact float64 // real distance, the sum the bounds scale with
			for g, m := range row {
				exact += math.Min(math.Abs(float64(float32(sig[g])-m)), wgramCap)
			}
			mdBound := gamma * exact // meanDistance against the real sum
			bound := 2 * mdBound     // both forms sum the same terms
			if bound > eps*(1+1e-12) {
				t.Fatalf("row %d: rounding bound %.6g from its float64 sums exceeds ε = %.6g", j, bound, eps)
			}
			if diff := math.Abs(d - exact); diff > mdBound {
				t.Fatalf("row %d: meanDistance %v is %.3g from the float64 sum %v, beyond γₙ·Σ|x| = %.3g", j, d, diff, exact, mdBound)
			}
			if diff := math.Abs(float64(dtil[j]) - d); diff > bound {
				t.Fatalf("row %d: screen d̃ = %v and meanDistance d = %v differ by %.3g > %.3g", j, dtil[j], d, diff, bound)
			} else if diff > worst {
				worst = diff
			}
		}
		t.Logf("ε = %.4g, largest |d̃ − d| over %d rows %.3g", eps, rows, worst)
	})
}

// sweepAudit is a roundEngine running the fast path that, before each sweep
// pass, holds every straggler's selection to the exact reference ranking:
// meanDistance to every other cluster, a (distance, index) sort, the first
// limit. The edit-checked set, the edit-call count and the chosen cluster
// must match it. In QGram mode the exact ranking must also list the screen
// keys in non-decreasing order: candidates with distinct keys keep the exact
// (distance, index) order.
type sweepAudit struct {
	t  *testing.T
	rr *roundRunner
	// checked counts the stragglers compared. tieCut counts those whose tie
	// group at T₀ straddles the limit, and tieReorders those among them
	// whose exact order picks another set of the group than index order
	// does: the cases that make the band's exact distances necessary.
	checked, tieCut, tieReorders int
}

func (a *sweepAudit) newEngine(ctx context.Context, reads []dna.Seq, uf *unionFind, o Options, thetaLow, thetaHigh int, editScr []edit.Scratch, stats *Stats) roundEngine {
	a.rr = newRoundRunner(ctx, reads, uf, o, thetaLow, thetaHigh, editScr, stats)
	return a
}

func (a *sweepAudit) runRound(rng *xrand.RNG, round int) { a.rr.runRound(rng, round) }

func (a *sweepAudit) runSweepPass(pass uint64) int {
	t, rr := a.t, a.rr
	nr := rr.prepareSweep(pass)
	sw := &rr.sweep
	ws := &sw.ws[0]
	gs := sw.gs.set
	k := rr.o.EditThreshold
	limit := sweepCandidates
	if nr/20 > limit {
		limit = nr / 20
	}
	var es edit.Scratch
	exact := make([]sweepCand, 0, nr)
	inExact := make([]bool, nr)
	for i := 0; i < nr; i++ {
		if rr.memberOff[i+1]-rr.memberOff[i] > sw.small {
			continue
		}
		a.checked++
		got, nIn, _ := rr.sweepSelect(ws, i)
		exact = exact[:0]
		for j := 0; j < nr; j++ {
			if j != i {
				exact = append(exact, sweepCand{j, gs.meanDistance(ws.sig, sw.meanRow(j))})
			}
		}
		sort.Slice(exact, func(x, y int) bool { return candLess(exact[x], exact[y]) })
		n := limit
		if n > len(exact) {
			n = len(exact)
		}
		for j := range inExact {
			inExact[j] = false
		}
		for _, c := range exact[:n] {
			inExact[c.j] = true
		}

		if len(got) != n {
			t.Fatalf("pass %d straggler %d: %d candidates selected, the reference checks %d", pass, i, len(got), n)
		}
		for x, c := range got {
			if !inExact[c.j] {
				t.Fatalf("pass %d straggler %d: selected cluster %d is outside the exact top %d", pass, i, c.j, n)
			}
			if x >= nIn && c.d != gs.meanDistance(ws.sig, sw.meanRow(c.j)) {
				t.Fatalf("pass %d straggler %d: band member %d carries %v, not its exact distance", pass, i, c.j, c.d)
			}
			if x > nIn && candLess(c, got[x-1]) {
				t.Fatalf("pass %d straggler %d: band out of (distance, index) order", pass, i)
			}
		}

		if gs.mode == QGram {
			key := ws.dtil
			for x := 1; x < len(exact); x++ {
				if key[exact[x].j] < key[exact[x-1].j] {
					t.Fatalf("pass %d straggler %d: cluster %d (key %v) ranks exactly after cluster %d (key %v)",
						pass, i, exact[x].j, key[exact[x].j], exact[x-1].j, key[exact[x-1].j])
				}
			}
			if n < len(exact) {
				// The tie group at T₀ = key of the limit-th candidate, in
				// exact order from exact[lo] up to exact[hi-1].
				t0 := key[exact[n-1].j]
				lo, hi := n-1, n
				for lo > 0 && key[exact[lo-1].j] == t0 {
					lo--
				}
				for hi < len(exact) && key[exact[hi].j] == t0 {
					hi++
				}
				if hi > n {
					a.tieCut++
					// Index order would take the group's smallest indices.
					byIndex := make([]int, 0, hi-lo)
					for _, c := range exact[lo:hi] {
						byIndex = append(byIndex, c.j)
					}
					sort.Ints(byIndex)
					for _, j := range byIndex[:n-lo] {
						if !inExact[j] {
							a.tieReorders++
							break
						}
					}
				}
			}
		}

		rep := rr.reads[rr.reps[i]]
		want, bestD := -1, k+1
		for _, c := range exact[:n] {
			if d, ok := es.Within(rep, rr.reads[rr.reps[c.j]], k); ok && d < bestD {
				want, bestD = c.j, d
			}
		}
		rr.sweepStragglerItem(0, i)
		if int(sw.editCalls[i]) != n {
			t.Fatalf("pass %d straggler %d: %d edit calls, the reference makes %d", pass, i, sw.editCalls[i], n)
		}
		if int(sw.bestJ[i]) != want {
			t.Fatalf("pass %d straggler %d: chose cluster %d, the reference chooses %d", pass, i, sw.bestJ[i], want)
		}
	}
	return rr.runSweepPass(pass)
}

// TestSweepSelectMatchesExactRanking compares, for every straggler of every
// sweep pass at the noisy point in both modes, the fast path's edit-checked
// candidate set and chosen cluster with the exact reference ranking. The
// end-to-end identity tests barely see a swap at the list's boundary: most
// straggler evaluations merge nothing, and the edit-call count does not
// depend on which candidates are checked. In QGram mode the means are
// quotients k/n of at most sweepSigReads members, so exact distances often
// tie at the list's boundary: the pool must keep stragglers whose tie group
// at T₀ straddles the limit and whose exact order takes another part of the
// group than index order, or a band ordered by index would pass unnoticed.
// WGram drift sums rarely tie, so there the test checks the selection only.
func TestSweepSelectMatchesExactRanking(t *testing.T) {
	seqs := noisyPointReads(t, 1)
	for _, mode := range []SignatureMode{QGram, WGram} {
		a := &sweepAudit{t: t}
		mustCluster(t, seqs, Options{Mode: mode, Seed: 10, engine: a})
		if mode == WGram {
			t.Logf("mode=%v: %d straggler evaluations", mode, a.checked)
			continue
		}
		t.Logf("mode=%v: %d straggler evaluations, %d with the tie group at T₀ cut by the limit, %d of them reordered by exact distance",
			mode, a.checked, a.tieCut, a.tieReorders)
		if a.tieReorders == 0 {
			t.Errorf("mode=%v: no tie group at T₀ that exact order cuts differently among %d stragglers; the pool no longer tests the band", mode, a.checked)
		}
	}
}

// TestSweepRecomputesScheduleFree pins Stats.SweepRecomputes: each straggler
// records its own count and the serial apply sums them, so the total at the
// noisy point is the same at 1, 4 and GOMAXPROCS workers.
func TestSweepRecomputesScheduleFree(t *testing.T) {
	seqs := noisyPointReads(t, 2)
	for _, mode := range []SignatureMode{QGram, WGram} {
		want := -1
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			st := mustCluster(t, seqs, Options{Mode: mode, Seed: 10, Workers: workers}).Stats
			if want < 0 {
				want = st.SweepRecomputes
				t.Logf("mode=%v: %d sweep recomputes, %d edit calls", mode, want, st.EditDistanceCalls)
				if want == 0 {
					t.Fatalf("mode=%v: the sweep recomputed no distance", mode)
				}
			}
			if st.SweepRecomputes != want {
				t.Fatalf("mode=%v workers=%d: %d sweep recomputes, %d at one worker", mode, workers, st.SweepRecomputes, want)
			}
		}
	}
}

// TestSweepKeyPremise guards the QGram screen's premise: sweepPlanes
// bit-planes hold every member count up to sweepSigReads and no more planes
// than that needs, sweepKeyScale is a multiple of every member count
// n ≤ sweepSigReads, so sweepKeyScale·R is an integer, and the largest key,
// sweepKeyScale·sweepGrams, is an exact float32.
func TestSweepKeyPremise(t *testing.T) {
	if got := bits.Len(sweepSigReads); got != sweepPlanes {
		t.Errorf("counts up to sweepSigReads = %d need %d bit-planes, sweepPlanes = %d", sweepSigReads, got, sweepPlanes)
	}
	for n := 1; n <= sweepSigReads; n++ {
		if sweepKeyScale%n != 0 {
			t.Errorf("sweepKeyScale = %d is not a multiple of member count %d", sweepKeyScale, n)
		}
	}
	if sweepKeyScale*sweepGrams >= 1<<24 {
		t.Errorf("the largest key %d is not an exact float32", sweepKeyScale*sweepGrams)
	}
}

// TestPlanesMatchSignatureSums pins the QGram mean kernels to the reference
// accumulation. Clusters of 1 to 8 members (only the first sweepSigReads
// count) over gram sets with repeated codes at q = 3..6 go through
// sweepMeanItem; each gram's plane count must equal the sum of the counted
// members' signatureInto entries, B their total, the key scale
// sweepKeyScale/n, and the mean row must equal, bit for bit, the reference's
// float32 sum over the members divided by their count.
func TestPlanesMatchSignatureSums(t *testing.T) {
	const G = sweepGrams
	rng := xrand.New(63)
	for q := 3; q <= 6; q++ {
		gs := newGramSet(xrand.Derive(63, uint64(q)), QGram, G, q)
		for g := 5; g < G; g += 7 { // repeated codes, beyond the draw's own
			gs.codes[g] = gs.codes[g-5]
		}
		for size := 1; size <= 8; size++ {
			// Mutated copies of one strand, so gram counts spread over 0..n.
			src := dna.Random(rng, 128)
			reads := make([]dna.Seq, size)
			members := make([]int32, size)
			for m := range reads {
				r := src.Clone()
				for e := 0; e < 4+rng.Intn(12); e++ {
					r[rng.Intn(len(r))] = dna.Base(rng.Intn(dna.NumBases))
				}
				reads[m], members[m] = r, int32(m)
			}
			rr := &roundRunner{reads: reads, members: members, memberOff: []int32{0, int32(size)}}
			sw := &rr.sweep
			sw.gs.set = gs
			sw.gs.idx.build(gs)
			sw.ws = make([]sweepWorker, 1)
			sw.meanBuf = make([]float32, G)
			sw.meanOK = make([]bool, 1)
			sw.planes = make([]planeRow, 1)
			sw.countSum = make([]int32, 1)
			sw.keyScale = make([]int32, 1)
			rr.sweepMeanItem(0, 0)

			n := min(size, sweepSigReads)
			sum := make([]float32, G)
			k := make([]int, G)
			sig := make([]int32, G)
			B := 0
			for _, r := range reads[:n] {
				sw.gs.idx.signatureInto(gs, r, sig)
				for g, v := range sig {
					sum[g] += float32(v)
					k[g] += int(v)
					B += int(v)
				}
			}
			if !sw.meanOK[0] || int(sw.countSum[0]) != B || int(sw.keyScale[0]) != sweepKeyScale/n {
				t.Fatalf("q=%d size=%d: row ok %v, B = %d, key scale %d; want B = %d, scale %d",
					q, size, sw.meanOK[0], sw.countSum[0], sw.keyScale[0], B, sweepKeyScale/n)
			}
			mean := sw.meanRow(0)
			for g := 0; g < G; g++ {
				got := 0
				for p := 0; p < sweepPlanes; p++ {
					got |= int(sw.planes[0][p][g>>6]>>(uint(g)&63)&1) << p
				}
				if got != k[g] {
					t.Fatalf("q=%d size=%d gram %d: planes count %d, signatures sum %d", q, size, g, got, k[g])
				}
				if want := sum[g] / float32(n); math.Float32bits(mean[g]) != math.Float32bits(want) {
					t.Fatalf("q=%d size=%d gram %d: mean %v, reference %v", q, size, g, mean[g], want)
				}
			}
		}
	}
}

// sweepCapture is a roundEngine maker that keeps the fast path's runner, so
// a benchmark can drive its sweep after ClusterContext returns.
type sweepCapture struct{ rr *roundRunner }

func (c *sweepCapture) newEngine(ctx context.Context, reads []dna.Seq, uf *unionFind, o Options, thetaLow, thetaHigh int, editScr []edit.Scratch, stats *Stats) roundEngine {
	c.rr = newRoundRunner(ctx, reads, uf, o, thetaLow, thetaHigh, editScr, stats)
	return c.rr
}

// BenchmarkSweepPass times one warm single-worker straggler-sweep pass at
// the test-scale noisy point (about 7 000 reads in 700 clusters; candidate
// limit 35). Clustering runs to its fixpoint first and pass 0 is repeated
// until it merges nothing, so every timed pass sees the same clusters.
func BenchmarkSweepPass(b *testing.B) {
	seqs := noisyPointReads(b, 1)
	for _, mode := range []SignatureMode{QGram, WGram} {
		b.Run("mode="+mode.String(), func(b *testing.B) {
			c := &sweepCapture{}
			mustCluster(b, seqs, Options{Mode: mode, Seed: 10, Workers: 1, engine: c})
			for c.rr.runSweepPass(0) > 0 {
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.rr.runSweepPass(0)
			}
		})
	}
}
