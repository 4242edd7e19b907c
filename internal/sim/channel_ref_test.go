package sim

import (
	"math"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// refTransmit is the float form of IIDChannel.Transmit, kept as its oracle:
// one Bool and one Float64 draw per base through the generator's methods,
// the comparisons made on floats.
func refTransmit(c IIDChannel, rng *xrand.RNG, strand dna.Seq) dna.Seq {
	out := make(dna.Seq, 0, len(strand)+4)
	for _, b := range strand {
		if rng.Bool(c.PIns) {
			out = append(out, dna.Base(rng.Intn(4)))
		}
		u := rng.Float64()
		switch {
		case u < c.PDel:
			// deleted
		case u < c.PDel+c.PSub:
			out = append(out, substitute(rng, b))
		default:
			out = append(out, b)
		}
	}
	if rng.Bool(c.PIns) {
		out = append(out, dna.Base(rng.Intn(4)))
	}
	return out
}

// checkTransmitMatchesRef transmits every strand through both forms from
// one seed and fails on the first read or next generator draw that differs,
// so a fast path that makes one draw more or fewer shows even when the read
// happens to agree.
func checkTransmitMatchesRef(t *testing.T, c IIDChannel, seed uint64, strands []dna.Seq) {
	t.Helper()
	fast, ref := xrand.New(seed), xrand.New(seed)
	for i, s := range strands {
		got, want := c.Transmit(fast, s), refTransmit(c, ref, s)
		if !got.Equal(want) {
			t.Fatalf("%+v strand %d: read %v, oracle %v", c, i, got, want)
		}
		if g, w := fast.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("%+v strand %d: next draw %#x, oracle %#x", c, i, g, w)
		}
	}
}

func TestIIDTransmitMatchesRefAtCalibratedRates(t *testing.T) {
	strands := randStrands(11, 10000, 492)
	for _, rate := range []float64{0.001, 0.01, 0.06} {
		checkTransmitMatchesRef(t, CalibratedIID(rate), 12, strands)
	}
}

func TestIIDTransmitMatchesRefOnRateGrid(t *testing.T) {
	// Every rate meets every other at the values where the integer
	// threshold could part from the float comparison: zero, the smallest
	// rates, an exact half, one, beyond one, negative and NaN. Bool makes no
	// draw at p <= 0 or p >= 1 and draws but never holds at NaN.
	grid := []float64{0, 1e-300, 0.001 / 3, 0.5, 1, 1.5, -0.1, math.NaN()}
	strands := randStrands(13, 20, 60)
	for _, pIns := range grid {
		for _, pDel := range grid {
			for _, pSub := range grid {
				checkTransmitMatchesRef(t, NewIIDChannel(pIns, pDel, pSub), 14, strands)
			}
		}
	}
	checkTransmitMatchesRef(t, NewIIDChannel(0, 0, 0.001/3), 15, randStrands(16, 200, 492))
}
