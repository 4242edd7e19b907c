package align

import (
	"strings"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

func seq(s string) dna.Seq { return dna.MustFromString(s) }

func TestSingleSequenceConsensusIsIdentity(t *testing.T) {
	g := NewGraph()
	s := seq("ACGTACGTGG")
	g.AddSequence(s)
	if got := g.Consensus(0); !got.Equal(s) {
		t.Fatalf("consensus = %v, want %v", got, s)
	}
	if g.NumSequences() != 1 {
		t.Fatal("NumSequences")
	}
	if g.NumNodes() != len(s) {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
}

func TestIdenticalReadsConsensus(t *testing.T) {
	s := seq("ACGGTTACGTAC")
	g := NewGraph()
	for i := 0; i < 7; i++ {
		g.AddSequence(s)
	}
	if got := g.Consensus(0); !got.Equal(s) {
		t.Fatalf("consensus = %v", got)
	}
	// All reads identical: the graph must not grow beyond the chain.
	if g.NumNodes() != len(s) {
		t.Fatalf("graph grew to %d nodes for identical reads", g.NumNodes())
	}
}

func TestSubstitutionOutvoted(t *testing.T) {
	ref := seq("ACGTACGTAC")
	mut := ref.Clone()
	mut[4] = mut[4] ^ 1 // substitution at index 4
	g := NewGraph()
	g.AddSequence(ref)
	g.AddSequence(ref)
	g.AddSequence(mut)
	if got := g.Consensus(0); !got.Equal(ref) {
		t.Fatalf("consensus = %v, want %v", got, ref)
	}
	// The substitution should occupy the same column, not a new one.
	cols := g.Columns()
	if len(cols) != len(ref) {
		t.Fatalf("%d columns, want %d", len(cols), len(ref))
	}
	if cols[4].Counts[ref[4]] != 2 || cols[4].Counts[mut[4]] != 1 {
		t.Fatalf("column 4 votes = %+v", cols[4])
	}
}

func TestDeletionOutvoted(t *testing.T) {
	ref := seq("ACGTACGTAC")
	del := append(ref[:3:3].Clone(), ref[4:]...)
	g := NewGraph()
	g.AddSequence(ref)
	g.AddSequence(del)
	g.AddSequence(ref)
	if got := g.Consensus(0); !got.Equal(ref) {
		t.Fatalf("consensus = %v, want %v", got, ref)
	}
}

func TestInsertionOutvoted(t *testing.T) {
	ref := seq("ACGTACGTAC")
	ins := append(ref[:5:5].Clone(), append(dna.Seq{dna.T}, ref[5:]...)...)
	g := NewGraph()
	g.AddSequence(ref)
	g.AddSequence(ins)
	g.AddSequence(ref)
	if got := g.Consensus(0); !got.Equal(ref) {
		t.Fatalf("consensus = %v, want %v", got, ref)
	}
}

func TestEmptyInputs(t *testing.T) {
	g := NewGraph()
	g.AddSequence(nil)
	if len(g.Consensus(0)) != 0 {
		t.Fatal("consensus of empty read should be empty")
	}
	g.AddSequence(seq("ACGT"))
	g.AddSequence(nil)
	// 1 real read vs 2 empty: gaps win everywhere.
	if len(g.Consensus(0)) != 0 {
		t.Fatalf("gap-majority columns should drop: %v", g.Consensus(0))
	}
}

func TestConsensusHelper(t *testing.T) {
	ref := seq("ACGTTGCAACGT")
	got := NewGraph().ConsensusOf([]dna.Seq{ref, ref, ref}, 0)
	if !got.Equal(ref) {
		t.Fatalf("Consensus helper = %v", got)
	}
	if len(NewGraph().ConsensusOf(nil, 0)) != 0 {
		t.Fatal("ConsensusOf(nil) should be empty")
	}
}

func TestTargetLenTrimming(t *testing.T) {
	ref := seq("ACGTACGTAC")
	// Three of five reads insert the same extra base: the inserted column
	// strictly outvotes the gaps (3 > 2), so the untrimmed consensus exceeds
	// len(ref) and the trim must drop that indel-heavy column.
	insA := append(ref[:5:5].Clone(), append(dna.Seq{dna.T}, ref[5:]...)...)
	g := NewGraph()
	g.AddSequence(insA)
	g.AddSequence(insA)
	g.AddSequence(insA)
	g.AddSequence(ref)
	g.AddSequence(ref)
	full := g.Consensus(0)
	if len(full) != len(ref)+1 {
		t.Fatalf("untrimmed consensus length = %d, want %d: %v", len(full), len(ref)+1, full)
	}
	trimmed := g.Consensus(len(ref))
	if len(trimmed) != len(ref) {
		t.Fatalf("trimmed length = %d, want %d", len(trimmed), len(ref))
	}
	if !trimmed.Equal(ref) {
		t.Fatalf("trimmed consensus = %v, want %v", trimmed, ref)
	}
}

// TestConsensusOfTrimsPrivateInsertion: one read of five carries a 12-base
// insertion of its own. The trim drops those columns, and ConsensusOf returns
// the reference.
func TestConsensusOfTrimsPrivateInsertion(t *testing.T) {
	rng := xrand.New(44)
	ref := dna.Random(rng, 60)
	insert := dna.Random(rng, 12)
	outlier := append(ref[:30:30].Clone(), append(insert, ref[30:]...)...)
	reads := []dna.Seq{ref.Clone(), ref.Clone(), ref.Clone(), ref.Clone(), outlier}
	if got := NewGraph().ConsensusOf(reads, len(ref)); !got.Equal(ref) {
		t.Fatalf("consensus = %v, want the reference", got)
	}
}

func TestRowsShape(t *testing.T) {
	ref := seq("ACGTAC")
	del := append(ref[:2:2].Clone(), ref[3:]...)
	g := NewGraph()
	g.AddSequence(ref)
	g.AddSequence(del)
	rows := g.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(rows[0]) != len(rows[1]) {
		t.Fatalf("row lengths differ: %q %q", rows[0], rows[1])
	}
	if strings.Count(rows[1], "-") != strings.Count(rows[0], "-")+1 {
		t.Fatalf("expected exactly one extra gap in deleted read: %q / %q", rows[0], rows[1])
	}
	// Removing gaps must reproduce the original reads.
	if strings.ReplaceAll(rows[0], "-", "") != ref.String() {
		t.Fatalf("row 0 = %q", rows[0])
	}
	if strings.ReplaceAll(rows[1], "-", "") != del.String() {
		t.Fatalf("row 1 = %q", rows[1])
	}
}

func TestRowsReproduceReads(t *testing.T) {
	rng := xrand.New(11)
	ref := dna.Random(rng, 40)
	reads := []dna.Seq{ref}
	for i := 0; i < 6; i++ {
		reads = append(reads, mutate(rng, ref, 0.08))
	}
	g := NewGraph()
	for _, r := range reads {
		g.AddSequence(r)
	}
	rows := g.Rows()
	for i, row := range rows {
		if strings.ReplaceAll(row, "-", "") != reads[i].String() {
			t.Fatalf("row %d does not reproduce read: %q vs %s", i, row, reads[i])
		}
	}
}

// mutate applies iid substitutions/insertions/deletions at rate p each third.
func mutate(rng *xrand.RNG, s dna.Seq, p float64) dna.Seq {
	out := make(dna.Seq, 0, len(s)+4)
	for _, b := range s {
		r := rng.Float64()
		switch {
		case r < p/3: // deletion
		case r < 2*p/3: // substitution
			out = append(out, dna.Base((int(b)+1+rng.Intn(3))%4))
		case r < p: // insertion before
			out = append(out, dna.Base(rng.Intn(4)), b)
		default:
			out = append(out, b)
		}
	}
	return out
}

func TestNoisyClusterRecovery(t *testing.T) {
	rng := xrand.New(42)
	recovered := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		ref := dna.Random(rng, 60)
		var reads []dna.Seq
		for i := 0; i < 10; i++ {
			reads = append(reads, mutate(rng, ref, 0.06))
		}
		got := NewGraph().ConsensusOf(reads, len(ref))
		if got.Equal(ref) {
			recovered++
		}
	}
	if recovered < trials*8/10 {
		t.Fatalf("recovered only %d/%d strands at 6%% error, coverage 10", recovered, trials)
	}
}

func TestConsensusCloseEvenWhenNotExact(t *testing.T) {
	rng := xrand.New(43)
	var es edit.Scratch
	for trial := 0; trial < 20; trial++ {
		ref := dna.Random(rng, 80)
		var reads []dna.Seq
		for i := 0; i < 8; i++ {
			reads = append(reads, mutate(rng, ref, 0.1))
		}
		got := NewGraph().ConsensusOf(reads, len(ref))
		if d := es.Levenshtein(got, ref); d > 8 {
			t.Fatalf("trial %d: consensus edit distance %d from reference", trial, d)
		}
	}
}

func TestColumnsMajority(t *testing.T) {
	var c Column
	c.Counts[dna.G] = 5
	c.Counts[dna.A] = 2
	c.Gaps = 3
	b, ok := c.Majority()
	if !ok || b != dna.G {
		t.Fatalf("majority = %v,%v", b, ok)
	}
	c.Gaps = 6
	if _, ok := c.Majority(); ok {
		t.Fatal("gap-dominated column should not keep a base")
	}
	if c.Coverage() != 7 {
		t.Fatalf("coverage = %d", c.Coverage())
	}
}

// TestMajorityTieSemantics is the regression test for the tie case the doc
// used to contradict: a base that exactly ties the gap count KEEPS the
// column. Ties are ambiguous between "spurious insertion seen by half the
// reads" and "true base deleted by half the reads"; keeping the base is
// recoverable (the §VII-C indel-heavy trim removes tied insertions when the
// consensus runs long) while dropping it would silently delete true bases —
// measured on the Fig. 6 workload, strict dropping raises the NW per-index
// error peak above BMA's.
func TestMajorityTieSemantics(t *testing.T) {
	var c Column
	c.Counts[dna.T] = 3
	c.Gaps = 3
	if b, ok := c.Majority(); !ok || b != dna.T {
		t.Fatalf("base tying the gap count must keep the column: %v,%v", b, ok)
	}
	c.Gaps = 4
	if _, ok := c.Majority(); ok {
		t.Fatal("outvoted base kept the column")
	}
	// An all-gap column (support can be zero after an empty read) never
	// contributes a base, even though 0 ties Gaps == 0 vacuously.
	var empty Column
	if _, ok := empty.Majority(); ok {
		t.Fatal("empty column kept a base")
	}
	empty.Gaps = 2
	if _, ok := empty.Majority(); ok {
		t.Fatal("all-gap column kept a base")
	}
	// End-to-end: a 2-read cluster where one read inserts a base produces a
	// tied column. The untrimmed consensus keeps it; the targetLen trim —
	// not the majority vote — is what removes it.
	ref := seq("ACGTACGTAC")
	ins := append(ref[:5:5].Clone(), append(dna.Seq{dna.T}, ref[5:]...)...)
	g := NewGraph()
	g.AddSequence(ref)
	g.AddSequence(ins)
	if got := g.Consensus(0); len(got) != len(ref)+1 {
		t.Fatalf("tied insertion column should survive the untrimmed vote: %v", got)
	}
	if got := g.Consensus(len(ref)); !got.Equal(ref) {
		t.Fatalf("trim did not remove the tied insertion: %v, want %v", got, ref)
	}
}

// TestGraphResetReuse checks the worker-pool calling convention: one Graph
// reused across clusters via ConsensusOf must produce exactly the same
// consensus as a fresh graph per cluster.
func TestGraphResetReuse(t *testing.T) {
	rng := xrand.New(9)
	reused := NewGraph()
	for trial := 0; trial < 50; trial++ {
		ref := dna.Random(rng, 20+rng.Intn(80))
		var reads []dna.Seq
		for i := 0; i < 2+rng.Intn(8); i++ {
			reads = append(reads, mutate(rng, ref, 0.08))
		}
		if rng.Intn(5) == 0 {
			reads = append(reads, nil) // empty reads must stay harmless
		}
		want := NewGraph().ConsensusOf(reads, len(ref))
		got := reused.ConsensusOf(reads, len(ref))
		if !got.Equal(want) {
			t.Fatalf("trial %d: reused-graph consensus %v != fresh %v", trial, got, want)
		}
		if reused.NumSequences() != len(reads) {
			t.Fatalf("trial %d: NumSequences = %d after reset, want %d", trial, reused.NumSequences(), len(reads))
		}
	}
}

// TestAddSequenceStopsAllocating pins the scratch reuse: once a reused graph
// has seen a cluster of a given shape, adding further same-length reads to a
// reset graph performs only O(1) bookkeeping allocations (path slice and
// column machinery), not O(nodes) DP rows.
func TestAddSequenceStopsAllocating(t *testing.T) {
	rng := xrand.New(10)
	ref := dna.Random(rng, 110)
	var reads []dna.Seq
	for i := 0; i < 10; i++ {
		reads = append(reads, mutate(rng, ref, 0.06))
	}
	g := NewGraph()
	g.ConsensusOf(reads, len(ref)) // warm node, path and DP scratch
	n := testing.AllocsPerRun(20, func() {
		g.Reset()
		for _, r := range reads {
			g.AddSequence(r)
		}
	})
	// The seed implementation allocated 3 slices per node per read (~3000
	// allocations for this cluster); the scratch path only re-allocates a
	// path slice per read plus occasional per-node slice growth.
	if n > 60 {
		t.Errorf("adding 10 reads allocates %.0f objects per run; scratch reuse is not effective", n)
	}
}

// TestConsensusAllocatesOnlyStrand pins the consensus tally and trim to
// graph scratch: once a graph has served a cluster, Consensus allocates the
// returned strand and nothing else, untrimmed or trimmed.
func TestConsensusAllocatesOnlyStrand(t *testing.T) {
	g := NewGraph()
	for i, reads := range noisyPointClusters(t, 20) {
		g.ConsensusOf(reads, 128)
		for _, targetLen := range []int{0, 128, 100} {
			if n := testing.AllocsPerRun(10, func() { g.Consensus(targetLen) }); n != 1 {
				t.Errorf("cluster %d, targetLen %d: Consensus allocates %.0f objects, want 1 (the strand)", i, targetLen, n)
			}
		}
	}
}

func TestGraphDeterminism(t *testing.T) {
	rng := xrand.New(3)
	ref := dna.Random(rng, 50)
	var reads []dna.Seq
	for i := 0; i < 6; i++ {
		reads = append(reads, mutate(rng, ref, 0.08))
	}
	a := NewGraph().ConsensusOf(reads, len(ref))
	b := NewGraph().ConsensusOf(reads, len(ref))
	if !a.Equal(b) {
		t.Fatal("consensus is nondeterministic")
	}
}

func BenchmarkConsensusCoverage10Len110(b *testing.B) {
	rng := xrand.New(1)
	ref := dna.Random(rng, 110)
	var reads []dna.Seq
	for i := 0; i < 10; i++ {
		reads = append(reads, mutate(rng, ref, 0.06))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewGraph().ConsensusOf(reads, len(ref))
	}
}
