package sim

import (
	"math"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

// LearnedProfile is the data-driven wetlab simulator of §V-B. It is trained
// purely on paired clean/noisy strands: each pair is aligned with
// Needleman–Wunsch and the alignment operations are tabulated by relative
// strand position (bucketed) and by the clean nucleotide. The model captures
// exactly the structure the paper says naive simulators miss:
//
//   - position-dependent error rates (per-bucket tables);
//   - unequal insertion/deletion/substitution likelihoods, conditioned on
//     the nucleotide;
//   - error bursts (geometric run-length fits for indel runs);
//   - per-read quality overdispersion (log-normal factor moment-matched to
//     the excess variance of per-read error rates);
//   - substitution target bias and insertion stutter.
//
// In this reproduction LearnedProfile plays the role of the paper's trained
// RNN for the headline Table I / Fig. 3 experiments; the faithful GRU
// sequence-to-sequence model is RNNSimulator (rnn.go).
type LearnedProfile struct {
	buckets int

	// Event-start probabilities per (bucket, base).
	pDel [][4]float64
	pSub [][4]float64
	pIns [][4]float64

	// Geometric burst-length parameters (success probability).
	delGeom float64
	insGeom float64

	// Substitution target distribution per clean base.
	subTo [4][4]float64

	// Insertion stutter probability (insert copy of previous base).
	stutter float64

	// Log-normal per-read quality sigma.
	qualitySigma float64
}

// Buckets returns the number of positional buckets of the model.
func (p *LearnedProfile) Buckets() int { return p.buckets }

// Name implements Channel.
func (p *LearnedProfile) Name() string { return "learned-profile" }

// shrink applies Bayesian shrinkage of an empirical rate toward the global
// rate using s pseudo-opportunities, stabilizing sparse buckets.
func shrink(events, opportunities float64, global float64) float64 {
	const s = 25.0
	return (events + s*global) / (opportunities + s)
}

// TrainProfile fits a LearnedProfile to paired data using the given number
// of positional buckets (24 is a good default for 100–200 nt strands).
func TrainProfile(pairs []Pair, buckets int) *LearnedProfile {
	if buckets <= 0 {
		buckets = 24
	}
	type cell struct {
		opp, del, sub, ins float64
	}
	table := make([][4]cell, buckets)
	var subTo [4][4]float64
	var delRuns, delTotal, insRuns, insTotal float64
	var insBases, stutterBases float64
	var rates []float64
	var es edit.Scratch

	for _, pr := range pairs {
		if len(pr.Clean) == 0 {
			continue
		}
		ops, dist := es.Align(pr.Clean, pr.Noisy)
		rates = append(rates, float64(dist)/float64(len(pr.Clean)))
		bucketOf := func(i int) int {
			b := i * buckets / len(pr.Clean)
			if b >= buckets {
				b = buckets - 1
			}
			return b
		}
		i, j := 0, 0 // clean / noisy cursors
		runDel, runIns := 0, 0
		flushDel := func() {
			if runDel > 0 {
				delRuns++
				delTotal += float64(runDel)
				runDel = 0
			}
		}
		flushIns := func() {
			if runIns > 0 {
				insRuns++
				insTotal += float64(runIns)
				runIns = 0
			}
		}
		for _, op := range ops {
			switch op {
			case edit.Match, edit.Sub:
				flushDel()
				flushIns()
				b := pr.Clean[i]
				c := &table[bucketOf(i)][b]
				c.opp++
				if op == edit.Sub {
					c.sub++
					subTo[b][pr.Noisy[j]]++
				}
				i++
				j++
			case edit.Del:
				flushIns()
				b := pr.Clean[i]
				c := &table[bucketOf(i)][b]
				c.opp++
				if runDel == 0 {
					c.del++ // burst start
				}
				runDel++
				i++
			case edit.Ins:
				flushDel()
				// Attribute the insertion to the clean position it precedes.
				pos := i
				if pos >= len(pr.Clean) {
					pos = len(pr.Clean) - 1
				}
				if runIns == 0 {
					bb := pr.Clean[pos]
					table[bucketOf(pos)][bb].ins++
				}
				runIns++
				insBases++
				if j > 0 && pr.Noisy[j] == pr.Noisy[j-1] {
					stutterBases++
				}
				j++
			}
		}
		flushDel()
		flushIns()
	}

	p := &LearnedProfile{buckets: buckets}
	p.pDel = make([][4]float64, buckets)
	p.pSub = make([][4]float64, buckets)
	p.pIns = make([][4]float64, buckets)

	// Global rates for shrinkage.
	var gOpp, gDel, gSub, gIns float64
	for _, row := range table {
		for b := 0; b < 4; b++ {
			gOpp += row[b].opp
			gDel += row[b].del
			gSub += row[b].sub
			gIns += row[b].ins
		}
	}
	if gOpp == 0 {
		return p // untrained model: never injects errors
	}
	globDel, globSub, globIns := gDel/gOpp, gSub/gOpp, gIns/gOpp
	for t := 0; t < buckets; t++ {
		for b := 0; b < 4; b++ {
			c := table[t][b]
			p.pDel[t][b] = shrink(c.del, c.opp, globDel)
			p.pSub[t][b] = shrink(c.sub, c.opp, globSub)
			p.pIns[t][b] = shrink(c.ins, c.opp, globIns)
		}
	}

	// Geometric burst parameters from mean run lengths.
	p.delGeom = geomFromMean(delTotal, delRuns)
	p.insGeom = geomFromMean(insTotal, insRuns)

	// Substitution target distributions (uniform fallback).
	for b := 0; b < 4; b++ {
		total := 0.0
		for t := 0; t < 4; t++ {
			total += subTo[b][t]
		}
		for t := 0; t < 4; t++ {
			if total > 0 {
				p.subTo[b][t] = subTo[b][t] / total
			} else if dna.Base(t) != dna.Base(b) {
				p.subTo[b][t] = 1.0 / 3.0
			}
		}
	}

	// Stutter probability: inserted bases match the previous base at rate
	// 1/4 by chance; anything above that is stutter.
	if insBases > 0 {
		frac := stutterBases / insBases
		p.stutter = math.Max(0, (frac-0.25)/0.75)
	}

	// Per-read overdispersion: excess of the observed variance of per-read
	// error rates over the binomial expectation, moment-matched to a
	// log-normal quality factor.
	p.qualitySigma = fitQualitySigma(rates, pairs)

	// Self-calibration: minimum-edit alignments merge adjacent errors, so a
	// model fitted from them systematically under-produces edits when its
	// own output is re-measured the same way. Generate from the model on
	// (held-in) training cleans, re-measure, and scale the event rates so
	// the generated aggregate rate matches the training data's.
	target := 0.0
	for _, r := range rates {
		target += r
	}
	target /= float64(len(rates))
	if target > 0 {
		sample := pairs
		if len(sample) > 200 {
			sample = sample[:200]
		}
		rng := xrand.New(0xca11b) //dnalint:allow seedflow -- internal self-calibration stream: TrainProfile takes no seed, and a fixed stream keeps the fitted profile reproducible
		var gen []Pair
		for _, pr := range sample {
			gen = append(gen, Pair{Clean: pr.Clean, Noisy: p.Transmit(rng, pr.Clean)})
		}
		if measured := MeasureErrorRate(gen); measured > 0 {
			scale := target / measured
			if scale < 0.5 {
				scale = 0.5
			}
			if scale > 2 {
				scale = 2
			}
			for t := 0; t < buckets; t++ {
				for b := 0; b < 4; b++ {
					p.pDel[t][b] *= scale
					p.pSub[t][b] *= scale
					p.pIns[t][b] *= scale
				}
			}
		}
	}
	return p
}

func geomFromMean(total, runs float64) float64 {
	if runs == 0 {
		return 1
	}
	mean := total / runs
	pg := 1 / mean
	if pg > 1 {
		pg = 1
	}
	if pg < 0.05 {
		pg = 0.05
	}
	return pg
}

func fitQualitySigma(rates []float64, pairs []Pair) float64 {
	if len(rates) < 2 {
		return 0
	}
	var mean float64
	for _, r := range rates {
		mean += r
	}
	mean /= float64(len(rates))
	if mean == 0 {
		return 0
	}
	var variance, meanLen float64
	for _, r := range rates {
		variance += (r - mean) * (r - mean)
	}
	variance /= float64(len(rates) - 1)
	for _, p := range pairs {
		meanLen += float64(len(p.Clean))
	}
	meanLen /= float64(len(pairs))
	binomial := mean / meanLen // ≈ p(1-p)/L
	excess := variance - binomial
	if excess <= 0 {
		return 0
	}
	disp := math.Sqrt(excess) / mean
	return math.Sqrt(math.Log(1 + disp*disp))
}

// Transmit implements Channel by sampling from the fitted model.
func (p *LearnedProfile) Transmit(rng *xrand.RNG, strand dna.Seq) dna.Seq {
	if len(strand) == 0 || p.buckets == 0 || len(p.pDel) == 0 {
		return strand.Clone()
	}
	quality := 1.0
	if p.qualitySigma > 0 {
		quality = math.Exp(p.qualitySigma*rng.NormFloat64() - p.qualitySigma*p.qualitySigma/2)
	}
	clampP := func(v float64) float64 {
		if v > 0.9 {
			return 0.9
		}
		return v
	}
	out := make(dna.Seq, 0, len(strand)+8)
	for i := 0; i < len(strand); i++ {
		b := strand[i]
		t := i * p.buckets / len(strand)
		if t >= p.buckets {
			t = p.buckets - 1
		}
		if rng.Bool(clampP(p.pIns[t][b] * quality)) {
			burst := rng.Geometric(p.insGeom)
			for k := 0; k < burst; k++ {
				if len(out) > 0 && rng.Bool(p.stutter) {
					out = append(out, out[len(out)-1])
				} else {
					out = append(out, dna.Base(rng.Intn(4)))
				}
			}
		}
		u := rng.Float64()
		pd := clampP(p.pDel[t][b] * quality)
		ps := clampP(p.pSub[t][b] * quality)
		switch {
		case u < pd:
			burst := rng.Geometric(p.delGeom)
			i += burst - 1
		case u < pd+ps:
			out = append(out, sampleSub(rng, p.subTo[b], b))
		default:
			out = append(out, b)
		}
	}
	return out
}
