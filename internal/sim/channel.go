// Package sim implements the wetlab-simulation module of the pipeline (§V):
// models of the errors that DNA synthesis, storage and sequencing introduce
// into strands, and of the sequencing-coverage distribution.
//
// Four channels are provided, mirroring the paper's comparison (Table I,
// Fig. 3):
//
//   - IIDChannel — the generalized Rashtchian et al. model: every index
//     suffers an insertion/deletion/substitution independently with fixed
//     probabilities. Simple, widely used, and unrealistically easy to
//     reconstruct from.
//   - SOLQCChannel — probabilities conditioned on the current nucleotide,
//     with pre-insertions only (no post-insertions), as in the SOLQC tool.
//   - ReferenceWetlab — this reproduction's stand-in for real sequenced
//     data: a deliberately complex hidden channel with position-dependent
//     error ramps, per-read quality dispersion, nucleotide-conditioned
//     substitutions and bursty indels. Experiments treat its paired output
//     as "real data" and never look inside it.
//   - LearnedProfile (profile.go) — the data-driven simulator of §V-B,
//     trained purely on paired clean/noisy reads.
//
// An additional GRU sequence-to-sequence simulator mirroring the paper's
// RNN architecture lives in rnn.go on top of internal/nn.
package sim

import (
	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// Channel turns one clean strand into one noisy read. Implementations must
// be deterministic given the RNG and safe for concurrent use with distinct
// RNGs.
type Channel interface {
	// Name identifies the channel in reports and experiment tables.
	Name() string
	// Transmit returns a noisy copy of strand using randomness from rng.
	Transmit(rng *xrand.RNG, strand dna.Seq) dna.Seq
}

// IIDChannel is the generalized error model of Rashtchian et al. (§V-A):
// at every index of the input strand an insertion, deletion or substitution
// is introduced independently with the given probabilities.
type IIDChannel struct {
	PIns, PDel, PSub float64
}

// NewIIDChannel returns an IID channel with the given per-index rates.
func NewIIDChannel(pIns, pDel, pSub float64) IIDChannel {
	return IIDChannel{PIns: pIns, PDel: pDel, PSub: pSub}
}

// CalibratedIID splits an aggregate per-base error rate evenly across the
// three error types, which is how naive simulations are typically configured
// when only an overall error rate is known.
func CalibratedIID(totalRate float64) IIDChannel {
	return IIDChannel{PIns: totalRate / 3, PDel: totalRate / 3, PSub: totalRate / 3}
}

// Name implements Channel.
func (c IIDChannel) Name() string { return "rashtchian-iid" }

// TotalRate returns the summed per-index error probability.
func (c IIDChannel) TotalRate() float64 { return c.PIns + c.PDel + c.PSub }

// Transmit implements Channel. It makes exactly the draws of the float
// form — rng.Bool(PIns) (and rng.Intn(4) when it holds) before every base
// and once after the last, rng.Float64() per base compared with PDel and
// PDel+PSub, rng.Intn(3) per substitution — but steps a local copy of the
// generator and compares integer thresholds (xrand.Threshold), storing the
// state back once. Bool's cases without a draw are kept: PIns <= 0 never
// inserts and PIns >= 1 always does.
func (c IIDChannel) Transmit(rng *xrand.RNG, strand dna.Seq) dna.Seq {
	// Without a draw the threshold decides: 0 for PIns <= 0, 2⁵³ for
	// PIns >= 1. NaN draws, against a threshold of 0.
	insT := xrand.Threshold(c.PIns)
	insDraw := !(c.PIns <= 0) && !(c.PIns >= 1)
	delT := xrand.Threshold(c.PDel)
	subT := xrand.Threshold(c.PDel + c.PSub)
	r := *rng
	var x uint64
	out := make(dna.Seq, 0, len(strand)+4)
	for i := 0; ; i++ {
		ins := insT != 0
		if insDraw {
			x, r = r.Next()
			ins = x>>11 < insT
		}
		if ins {
			x, r = r.Next()
			out = append(out, dna.Base(x%4))
		}
		if i == len(strand) {
			break
		}
		b := strand[i]
		x, r = r.Next()
		switch u := x >> 11; {
		case u < delT:
			// deleted
		case u < subT:
			x, r = r.Next()
			out = append(out, (b+1+dna.Base(x%3))%4)
		default:
			out = append(out, b)
		}
	}
	*rng = r
	return out
}

// substitute returns a uniformly random base different from b.
func substitute(rng *xrand.RNG, b dna.Base) dna.Base {
	return dna.Base((int(b) + 1 + rng.Intn(3)) % 4)
}

// SOLQCChannel conditions error probabilities on the current nucleotide, in
// the style of the SOLQC quality-control tool (Sabary et al.). It simulates
// pre-insertions with some probability but not post-insertions, which makes
// forward reconstruction harder than reverse reconstruction — the asymmetry
// noted in §V-A of the paper.
type SOLQCChannel struct {
	// PDel and PSub are deletion/substitution probabilities conditioned on
	// the clean base at the index.
	PDel, PSub [4]float64
	// PIns is the pre-insertion probability conditioned on the clean base
	// that follows the insertion point.
	PIns [4]float64
	// SubTo[b] is the substitution target distribution for clean base b;
	// rows must sum to 1 over the three non-b bases (b's own entry unused).
	SubTo [4][4]float64
}

// DefaultSOLQC returns a SOLQC-style channel with nucleotide-conditioned
// rates whose aggregate error rate is approximately totalRate.
func DefaultSOLQC(totalRate float64) SOLQCChannel {
	// Mild, plausible conditioning: A/T indel-prone, transitions favoured.
	w := totalRate / 3
	ch := SOLQCChannel{
		PDel: [4]float64{1.3 * w, 0.7 * w, 0.7 * w, 1.3 * w},
		PSub: [4]float64{w, w, w, w},
		PIns: [4]float64{1.2 * w, 0.8 * w, 0.8 * w, 1.2 * w},
	}
	// Transition-biased substitution targets (A↔G, C↔T).
	ch.SubTo[dna.A] = [4]float64{0, 0.2, 0.6, 0.2}
	ch.SubTo[dna.C] = [4]float64{0.2, 0, 0.2, 0.6}
	ch.SubTo[dna.G] = [4]float64{0.6, 0.2, 0, 0.2}
	ch.SubTo[dna.T] = [4]float64{0.2, 0.6, 0.2, 0}
	return ch
}

// Name implements Channel.
func (c SOLQCChannel) Name() string { return "solqc" }

// Transmit implements Channel.
func (c SOLQCChannel) Transmit(rng *xrand.RNG, strand dna.Seq) dna.Seq {
	out := make(dna.Seq, 0, len(strand)+4)
	for _, b := range strand {
		if rng.Bool(c.PIns[b]) { // pre-insertion only
			out = append(out, dna.Base(rng.Intn(4)))
		}
		u := rng.Float64()
		switch {
		case u < c.PDel[b]:
			// deleted
		case u < c.PDel[b]+c.PSub[b]:
			out = append(out, sampleSub(rng, c.SubTo[b], b))
		default:
			out = append(out, b)
		}
	}
	return out
}

// sampleSub draws a substitution target from dist, falling back to a uniform
// different base when the row is unnormalized.
func sampleSub(rng *xrand.RNG, dist [4]float64, b dna.Base) dna.Base {
	u := rng.Float64()
	acc := 0.0
	for t := 0; t < 4; t++ {
		if dna.Base(t) == b {
			continue
		}
		acc += dist[t]
		if u < acc {
			return dna.Base(t)
		}
	}
	return substitute(rng, b)
}
