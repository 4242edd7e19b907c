package bench

import (
	"context"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/cluster"
	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// mutate returns a noisy copy of s: each position suffers a substitution,
// insertion or deletion with probability p. Enough noise makes the POA graph
// branch heavily, which is the structure the parity tests need to cover.
func mutate(rng *xrand.RNG, s dna.Seq, p float64) dna.Seq {
	out := make(dna.Seq, 0, len(s)+4)
	for _, b := range s {
		switch {
		case rng.Float64() < p/3:
			out = append(out, dna.Base(rng.Intn(4))) // substitution
		case rng.Float64() < p/3:
			// deletion: skip the base
		case rng.Float64() < p/3:
			out = append(out, b, dna.Base(rng.Intn(4))) // insertion after
		default:
			out = append(out, b)
		}
	}
	return out
}

// TestEditKernelParityWithSeed is the satellite property test: the
// dispatching and bit-parallel edit kernels must be bit-identical to the DP
// references (LevenshteinDP, WithinDP), and Align to the frozen seed
// traceback, on random pairs and on the edge shapes (empty, singleton,
// first-base divergence).
func TestEditKernelParityWithSeed(t *testing.T) {
	rng := xrand.New(21)
	var s edit.Scratch
	check := func(a, b dna.Seq, k int) {
		t.Helper()
		want := s.LevenshteinDP(a, b)
		if got := s.Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%v,%v) = %d, DP %d", a, b, got, want)
		}
		if got := s.LevenshteinBP(a, b); got != want {
			t.Fatalf("LevenshteinBP(%v,%v) = %d, DP %d", a, b, got, want)
		}
		wd, wok := s.WithinDP(a, b, k)
		if gd, gok := s.Within(a, b, k); gd != wd || gok != wok {
			t.Fatalf("Within(%v,%v,%d) = (%d,%v), DP (%d,%v)", a, b, k, gd, gok, wd, wok)
		}
		if bd, bok := s.WithinBP(a, b, k); bd != wd || bok != wok {
			t.Fatalf("WithinBP(%v,%v,%d) = (%d,%v), DP (%d,%v)", a, b, k, bd, bok, wd, wok)
		}
		gops, gc := s.Align(a, b)
		wops, wc := refAlign(a, b)
		if gc != wc || len(gops) != len(wops) {
			t.Fatalf("Align(%v,%v) cost %d/%d len %d/%d", a, b, gc, wc, len(gops), len(wops))
		}
		for i := range gops {
			if gops[i] != wops[i] {
				t.Fatalf("Align(%v,%v) op %d: %v != seed %v", a, b, i, gops[i], wops[i])
			}
		}
	}
	check(nil, nil, 3)
	check(dna.Seq{dna.A}, nil, 3)
	check(nil, dna.Seq{dna.T}, 0)
	check(dna.Seq{dna.A}, dna.Seq{dna.C}, 1) // singleton, first-base divergence
	for trial := 0; trial < 300; trial++ {
		a := dna.Random(rng, rng.Intn(80))
		b := mutate(rng, a, 0.2)
		if trial%3 == 0 {
			b = dna.Random(rng, rng.Intn(80)) // unrelated pair
		}
		if trial%5 == 0 && len(a) > 0 && len(b) > 0 {
			b[0] = a[0] ^ 1 // force first-base divergence
		}
		check(a, b, rng.Intn(25))
	}
}

// TestPOAParityWithSeed: consensus through the scratch-reusing graph (both
// fresh and reused across clusters) must be byte-identical to the frozen
// seed POA on branching graphs built from noisy read clusters.
func TestPOAParityWithSeed(t *testing.T) {
	rng := xrand.New(22)
	reused := align.NewGraph()
	for trial := 0; trial < 60; trial++ {
		refLen := 10 + rng.Intn(70)
		ref := dna.Random(rng, refLen)
		reads := make([]dna.Seq, 2+rng.Intn(7))
		for i := range reads {
			reads[i] = mutate(rng, ref, 0.25)
		}
		if trial%7 == 0 {
			reads = append(reads, nil) // empty read mixed in
		}
		if trial%11 == 0 {
			reads = reads[:1] // singleton cluster
		}
		want := refConsensus(reads, refLen)
		if got := align.NewGraph().ConsensusOf(reads, refLen); !got.Equal(want) {
			t.Fatalf("trial %d: fresh consensus %v != seed %v", trial, got, want)
		}
		if got := reused.ConsensusOf(reads, refLen); !got.Equal(want) {
			t.Fatalf("trial %d: reused consensus %v != seed %v", trial, got, want)
		}
	}
}

// TestThroughputQuick holds the stage kernels to their oracles at one
// operating point: 120 strands × 110 nt, coverage 8, 3% IID error, seed 7.
// Every pooled reconstruction must match its reference, the POA consensus
// the frozen seed implementation at ≥3× fewer allocations, and the
// bit-parallel edit kernel the DP kernel. Clustering's comparison with its
// reference on this pool is internal/cluster's
// TestFastPathMatchesReferenceAtScale.
func TestThroughputQuick(t *testing.T) {
	const (
		strands   = 120
		strandLen = 110
		coverage  = 8
		errorRate = 0.03
		seed      = 7
	)
	ctx := context.Background()
	strandRNG := xrand.Derive(seed, 0x5ca1e+1)
	src := make([]dna.Seq, strands)
	for i := range src {
		src[i] = dna.Random(strandRNG, strandLen)
	}
	reads, err := sim.SimulatePoolContext(ctx, src, sim.Options{
		Channel:  sim.CalibratedIID(errorRate),
		Coverage: sim.FixedCoverage(coverage),
		Seed:     seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := sim.Sequences(reads)
	res, err := cluster.ClusterContext(ctx, rs, cluster.Options{Seed: seed + 3})
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([][]dna.Seq, len(res.Clusters))
	for i, members := range res.Clusters {
		for _, m := range members {
			clusters[i] = append(clusters[i], rs[m])
		}
	}

	// Reconstruction: every pooled, scratch-reusing run equals its reference
	// on every cluster. Adaptive must equal the output of whichever of its
	// two paths it selected.
	reconstructAll := func(algo recon.Algorithm) []dna.Seq {
		out, err := recon.ReconstructAllContext(ctx, clusters, strandLen, algo, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	nw := reconstructAll(recon.NW{})
	bma := reconstructAll(recon.BMA{})
	dbma := reconstructAll(recon.DoubleSidedBMA{})
	adaptive := reconstructAll(recon.Adaptive{})
	reused := align.NewGraph()
	exhaustive := align.NewGraph()
	exhaustive.SetReferenceDP(true)
	perCall := func(f func([]dna.Seq, int) dna.Seq) []dna.Seq {
		out := make([]dna.Seq, len(clusters))
		for i, cl := range clusters {
			out[i] = f(cl, strandLen)
		}
		return out
	}
	for _, c := range []struct {
		name      string
		got, want []dna.Seq
	}{
		{"NW vs a reused Graph", nw, perCall(reused.ConsensusOf)},
		{"NW vs the seed POA", nw, perCall(refConsensus)},
		{"NW vs the exhaustive-DP kernel", nw, perCall(exhaustive.ConsensusOf)},
		{"BMA vs per-call BMA", bma, perCall(recon.BMA{}.Reconstruct)},
		{"DBMA vs per-call DBMA", dbma, perCall(recon.DoubleSidedBMA{}.Reconstruct)},
	} {
		bad := 0
		for i := range c.got {
			if !c.got[i].Equal(c.want[i]) {
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%s: differs on %d of %d clusters", c.name, bad, len(clusters))
		}
	}
	for i := range adaptive {
		if !adaptive[i].Equal(bma[i]) && !adaptive[i].Equal(nw[i]) {
			t.Errorf("cluster %d: Adaptive equals neither BMA nor NW", i)
		}
	}

	// Allocations: the reused graph allocates at least 3× less than the seed
	// POA on the largest cluster, and a warm edit scratch allocates nothing
	// on a pair of reads of one strand, which runs the kernel to the end.
	probe := clusters[0]
	for _, cl := range clusters {
		if len(cl) > len(probe) {
			probe = cl
		}
	}
	cur := testing.AllocsPerRun(5, func() { reused.ConsensusOf(probe, strandLen) })
	seedAllocs := testing.AllocsPerRun(5, func() { refConsensus(probe, strandLen) })
	if seedAllocs < 3*max(cur, 1) {
		t.Errorf("NW allocates %.0f/op on a %d-read cluster, seed POA %.0f/op: want at least 3x fewer",
			cur, len(probe), seedAllocs)
	}
	var es edit.Scratch
	if n := testing.AllocsPerRun(100, func() { es.Within(probe[0], probe[1], strandLen/4) }); n != 0 {
		t.Errorf("warm edit.Scratch.Within allocates %.0f/op, want 0", n)
	}

	// Edit kernels: WithinDP and WithinBP agree on 200 pairs of mutated
	// copies at each length, with the clustering hot path's k = len/4.
	rng := xrand.New(seed + 9)
	for _, n := range []int{64, 150, 300} {
		k := n / 4
		copies := make([]dna.Seq, 64)
		base := dna.Random(rng, n)
		for i := range copies {
			s := base.Clone()
			for e := 0; e < n/20+1; e++ {
				s[rng.Intn(n)] = dna.Base(rng.Intn(4))
			}
			copies[i] = s
		}
		prng := xrand.New(seed + 11)
		for i := 0; i < 200; i++ {
			a, b := copies[prng.Intn(len(copies))], copies[prng.Intn(len(copies))]
			dd, dok := es.WithinDP(a, b, k)
			bd, bok := es.WithinBP(a, b, k)
			if dd != bd || dok != bok {
				t.Errorf("length %d, pair %d: WithinDP (%d, %v), WithinBP (%d, %v)", n, i, dd, dok, bd, bok)
				break
			}
		}
	}
}
