package sim

import (
	"context"
	"math"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

func randStrands(seed uint64, n, length int) []dna.Seq {
	rng := xrand.New(seed)
	out := make([]dna.Seq, n)
	for i := range out {
		out[i] = dna.Random(rng, length)
	}
	return out
}

// simulate runs SimulatePoolContext under a background context, failing the
// test on error.
func simulate(t *testing.T, strands []dna.Seq, opts Options) []Read {
	t.Helper()
	reads, err := SimulatePoolContext(context.Background(), strands, opts)
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

func TestIIDZeroRatesIdentity(t *testing.T) {
	ch := NewIIDChannel(0, 0, 0)
	rng := xrand.New(1)
	s := dna.Random(rng, 100)
	if got := ch.Transmit(rng, s); !got.Equal(s) {
		t.Fatal("zero-rate channel mutated the strand")
	}
}

func TestIIDErrorRateMatchesConfiguration(t *testing.T) {
	ch := CalibratedIID(0.06)
	if math.Abs(ch.TotalRate()-0.06) > 1e-12 {
		t.Fatalf("TotalRate = %v", ch.TotalRate())
	}
	pairs := GeneratePairs(2, ch, randStrands(3, 200, 110), 3)
	rate := MeasureErrorRate(pairs)
	if rate < 0.045 || rate > 0.075 {
		t.Fatalf("measured rate %v for configured 0.06", rate)
	}
}

func TestIIDDeletionsShortenInsertionsLengthen(t *testing.T) {
	rng := xrand.New(4)
	s := dna.Random(rng, 500)
	del := IIDChannel{PDel: 0.2}
	sumLen := 0
	for i := 0; i < 50; i++ {
		sumLen += len(del.Transmit(rng, s))
	}
	if avg := float64(sumLen) / 50; avg > 430 || avg < 370 {
		t.Fatalf("deletion-only channel average length %v, want ≈400", avg)
	}
	ins := IIDChannel{PIns: 0.2}
	sumLen = 0
	for i := 0; i < 50; i++ {
		sumLen += len(ins.Transmit(rng, s))
	}
	if avg := float64(sumLen) / 50; avg < 570 || avg > 630 {
		t.Fatalf("insertion-only channel average length %v, want ≈600", avg)
	}
}

func TestIIDSubstitutionOnlyPreservesLength(t *testing.T) {
	rng := xrand.New(5)
	s := dna.Random(rng, 300)
	ch := IIDChannel{PSub: 0.3}
	for i := 0; i < 20; i++ {
		got := ch.Transmit(rng, s)
		if len(got) != len(s) {
			t.Fatal("substitution-only channel changed length")
		}
		if dna.Hamming(got, s) == 0 {
			t.Fatal("0.3 substitution rate produced an identical strand")
		}
	}
}

func TestSOLQCRateBallpark(t *testing.T) {
	ch := DefaultSOLQC(0.06)
	pairs := GeneratePairs(6, ch, randStrands(7, 200, 110), 3)
	rate := MeasureErrorRate(pairs)
	if rate < 0.035 || rate > 0.09 {
		t.Fatalf("measured rate %v for nominal 0.06", rate)
	}
}

func TestSOLQCSubstitutionBias(t *testing.T) {
	// A must substitute to G far more often than to C or T.
	ch := DefaultSOLQC(0.3)
	rng := xrand.New(8)
	counts := map[dna.Base]int{}
	s := make(dna.Seq, 200)
	for i := range s {
		s[i] = dna.A
	}
	var es edit.Scratch
	for trial := 0; trial < 200; trial++ {
		got := ch.Transmit(rng, s)
		// Count substituted bases among equal-length prefix positions; use
		// alignment to be robust to the channel's indels.
		ops, _ := es.Align(s, got)
		j := 0
		for _, op := range ops {
			switch op {
			case edit.Match:
				j++
			case edit.Sub:
				counts[got[j]]++
				j++
			case edit.Ins:
				j++
			}
		}
	}
	if counts[dna.G] <= counts[dna.C] || counts[dna.G] <= counts[dna.T] {
		t.Fatalf("transition bias not observed: %v", counts)
	}
}

func TestReferenceWetlabPositionRamp(t *testing.T) {
	ch := NewReferenceWetlab()
	strands := randStrands(11, 300, 120)
	pairs := GeneratePairs(12, ch, strands, 2)
	// Tabulate per-position (first vs last third) error events via alignment.
	var headErr, tailErr, headOpp, tailOpp float64
	var es edit.Scratch
	for _, pr := range pairs {
		ops, _ := es.Align(pr.Clean, pr.Noisy)
		i := 0
		for _, op := range ops {
			isErr := op != edit.Match
			consumesClean := op == edit.Match || op == edit.Sub || op == edit.Del
			pos := i
			if pos >= len(pr.Clean) {
				pos = len(pr.Clean) - 1
			}
			third := pos * 3 / len(pr.Clean)
			if third == 0 {
				headOpp++
				if isErr {
					headErr++
				}
			} else if third == 2 {
				tailOpp++
				if isErr {
					tailErr++
				}
			}
			if consumesClean {
				i++
			}
		}
	}
	headRate := headErr / headOpp
	tailRate := tailErr / tailOpp
	if tailRate < headRate*1.5 {
		t.Fatalf("no position ramp: head %v tail %v", headRate, tailRate)
	}
}

func TestReferenceWetlabOverdispersion(t *testing.T) {
	ch := NewReferenceWetlab()
	strands := randStrands(13, 400, 110)
	pairs := GeneratePairs(14, ch, strands, 1)
	var rates []float64
	var es edit.Scratch
	for _, p := range pairs {
		rates = append(rates, float64(es.Levenshtein(p.Clean, p.Noisy))/float64(len(p.Clean)))
	}
	mean, variance := meanVar(rates)
	binomial := mean / 110
	if variance < 2*binomial {
		t.Fatalf("per-read variance %v not overdispersed vs binomial %v", variance, binomial)
	}
}

func meanVar(xs []float64) (float64, float64) {
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return m, v / float64(len(xs)-1)
}

func TestReferenceWetlabEmptyStrand(t *testing.T) {
	ch := NewReferenceWetlab()
	if got := ch.Transmit(xrand.New(1), nil); len(got) != 0 {
		t.Fatal("empty strand should yield empty read")
	}
}

func TestSimulatePoolCoverageAndOrigins(t *testing.T) {
	strands := randStrands(20, 30, 80)
	reads := simulate(t, strands, Options{
		Channel:  CalibratedIID(0.03),
		Coverage: FixedCoverage(5),
		Seed:     21,
	})
	if len(reads) != 150 {
		t.Fatalf("got %d reads, want 150", len(reads))
	}
	perOrigin := map[int]int{}
	for _, r := range reads {
		perOrigin[r.Origin]++
	}
	for i := 0; i < 30; i++ {
		if perOrigin[i] != 5 {
			t.Fatalf("origin %d has %d reads", i, perOrigin[i])
		}
	}
}

func TestSimulatePoolDeterministicAcrossRuns(t *testing.T) {
	strands := randStrands(22, 40, 90)
	opts := Options{Channel: NewReferenceWetlab(), Coverage: PoissonCoverage(8), Seed: 23}
	a := simulate(t, strands, opts)
	b := simulate(t, strands, opts)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Origin != b[i].Origin || !a[i].Seq.Equal(b[i].Seq) {
			t.Fatalf("read %d differs between identical runs", i)
		}
	}
}

func TestSimulatePoolDropout(t *testing.T) {
	strands := randStrands(24, 200, 60)
	reads := simulate(t, strands, Options{
		Channel:  NewIIDChannel(0, 0, 0),
		Coverage: FixedCoverage(1),
		Dropout:  0.5,
		Seed:     25,
	})
	if len(reads) < 60 || len(reads) > 140 {
		t.Fatalf("dropout 0.5 kept %d/200 strands", len(reads))
	}
}

func TestSimulatePoolShufflesByDefault(t *testing.T) {
	strands := randStrands(26, 50, 60)
	reads := simulate(t, strands, Options{Channel: NewIIDChannel(0, 0, 0), Coverage: FixedCoverage(2), Seed: 27})
	ordered := true
	for i := 1; i < len(reads); i++ {
		if reads[i].Origin < reads[i-1].Origin {
			ordered = false
			break
		}
	}
	if ordered {
		t.Fatal("reads came back in origin order; expected shuffle")
	}
	kept := simulate(t, strands, Options{Channel: NewIIDChannel(0, 0, 0), Coverage: FixedCoverage(2), Seed: 27, KeepOrder: true})
	for i := 1; i < len(kept); i++ {
		if kept[i].Origin < kept[i-1].Origin {
			t.Fatal("KeepOrder violated")
		}
	}
}

func TestSkewedCoverageIsSkewed(t *testing.T) {
	rng := xrand.New(31)
	model := SkewedCoverage{Mean: 10, Sigma: 0.6}
	var samples []float64
	for i := 0; i < 5000; i++ {
		samples = append(samples, float64(model.Copies(rng)))
	}
	mean, variance := meanVar(samples)
	if math.Abs(mean-10) > 1 {
		t.Fatalf("skewed coverage mean %v", mean)
	}
	if variance < 15 { // Poisson alone would give variance ≈ 10
		t.Fatalf("variance %v not overdispersed", variance)
	}
}

func TestSequencesStripsOrigins(t *testing.T) {
	reads := []Read{{Seq: dna.MustFromString("ACGT"), Origin: 3}}
	seqs := Sequences(reads)
	if len(seqs) != 1 || !seqs[0].Equal(reads[0].Seq) {
		t.Fatal("Sequences mismatch")
	}
}

func TestMeasureErrorRateEmpty(t *testing.T) {
	if MeasureErrorRate(nil) != 0 {
		t.Fatal("empty dataset should measure 0")
	}
}

func TestTrainProfileLearnsAggregateRate(t *testing.T) {
	ref := NewReferenceWetlab()
	strands := randStrands(41, 400, 110)
	train := GeneratePairs(42, ref, strands, 2)
	model := TrainProfile(train, 24)

	// Generate from the model and compare aggregate error rates.
	gen := GeneratePairs(43, model, strands[:200], 2)
	realRate := MeasureErrorRate(train)
	modelRate := MeasureErrorRate(gen)
	if modelRate < realRate*0.7 || modelRate > realRate*1.35 {
		t.Fatalf("model rate %v vs real rate %v", modelRate, realRate)
	}
}

func TestTrainProfileLearnsPositionRamp(t *testing.T) {
	ref := NewReferenceWetlab()
	strands := randStrands(44, 400, 110)
	train := GeneratePairs(45, ref, strands, 2)
	model := TrainProfile(train, 24)

	// The learned model must reproduce head-vs-tail asymmetry.
	gen := GeneratePairs(46, model, strands[:200], 2)
	head, tail := headTailRates(gen)
	if tail < head*1.3 {
		t.Fatalf("learned model lost the position ramp: head %v tail %v", head, tail)
	}
}

func headTailRates(pairs []Pair) (float64, float64) {
	var headErr, tailErr, headOpp, tailOpp float64
	var es edit.Scratch
	for _, pr := range pairs {
		ops, _ := es.Align(pr.Clean, pr.Noisy)
		i := 0
		for _, op := range ops {
			pos := i
			if pos >= len(pr.Clean) {
				pos = len(pr.Clean) - 1
			}
			third := pos * 3 / len(pr.Clean)
			isErr := op != edit.Match
			if third == 0 {
				headOpp++
				if isErr {
					headErr++
				}
			} else if third == 2 {
				tailOpp++
				if isErr {
					tailErr++
				}
			}
			if op == edit.Match || op == edit.Sub || op == edit.Del {
				i++
			}
		}
	}
	return headErr / headOpp, tailErr / tailOpp
}

func TestTrainProfileCloserToRealThanIID(t *testing.T) {
	// The central claim of §V-B at channel level: the data-driven model's
	// positional profile matches the reference channel better than an IID
	// channel calibrated to the same aggregate rate.
	ref := NewReferenceWetlab()
	strands := randStrands(47, 400, 110)
	train := GeneratePairs(48, ref, strands, 2)
	model := TrainProfile(train, 24)
	iid := CalibratedIID(MeasureErrorRate(train))

	eval := strands[:200]
	realHead, realTail := headTailRates(GeneratePairs(49, ref, eval, 2))
	modHead, modTail := headTailRates(GeneratePairs(50, model, eval, 2))
	iidHead, iidTail := headTailRates(GeneratePairs(51, iid, eval, 2))

	modDev := math.Abs(modHead-realHead) + math.Abs(modTail-realTail)
	iidDev := math.Abs(iidHead-realHead) + math.Abs(iidTail-realTail)
	if modDev >= iidDev {
		t.Fatalf("learned profile (dev %v) no better than IID (dev %v)", modDev, iidDev)
	}
}

func TestTrainProfileEmptyAndDegenerate(t *testing.T) {
	m := TrainProfile(nil, 10)
	rng := xrand.New(1)
	s := dna.Random(rng, 50)
	if got := m.Transmit(rng, s); !got.Equal(s) {
		t.Fatal("untrained model should be the identity channel")
	}
	// Clean-only pairs: model should inject (almost) no errors.
	pairs := []Pair{{Clean: s, Noisy: s.Clone()}}
	m2 := TrainProfile(pairs, 10)
	errs := 0
	for i := 0; i < 50; i++ {
		if !m2.Transmit(rng, s).Equal(s) {
			errs++
		}
	}
	if errs > 25 {
		t.Fatalf("noise-free training produced errors in %d/50 reads", errs)
	}
}

func TestProfileTransmitEmpty(t *testing.T) {
	m := TrainProfile(nil, 5)
	if got := m.Transmit(xrand.New(1), nil); len(got) != 0 {
		t.Fatal("empty strand")
	}
}

func BenchmarkIIDTransmit(b *testing.B) {
	ch := CalibratedIID(0.06)
	rng := xrand.New(1)
	s := dna.Random(rng, 150)
	b.SetBytes(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Transmit(rng, s)
	}
}

// BenchmarkIIDTransmitStream is the stream workload's channel: 492-nt
// strands at 0.1 % aggregate error, where nearly every base is copied.
func BenchmarkIIDTransmitStream(b *testing.B) {
	ch := CalibratedIID(0.001)
	rng := xrand.New(1)
	s := dna.Random(rng, 492)
	b.SetBytes(492)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Transmit(rng, s)
	}
}

func BenchmarkReferenceWetlabTransmit(b *testing.B) {
	ch := NewReferenceWetlab()
	rng := xrand.New(1)
	s := dna.Random(rng, 150)
	b.SetBytes(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Transmit(rng, s)
	}
}

func BenchmarkLearnedProfileTransmit(b *testing.B) {
	strands := randStrands(1, 100, 110)
	model := TrainProfile(GeneratePairs(2, NewReferenceWetlab(), strands, 2), 24)
	rng := xrand.New(3)
	s := dna.Random(rng, 150)
	b.SetBytes(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Transmit(rng, s)
	}
}
