package recon

import (
	"dnastore/internal/dna"
	"dnastore/internal/edit"
)

// ErrorProfile tabulates the per-index reconstruction error rate across
// strand pairs: profile[i] is the fraction of strands whose reconstructed
// base at index i differs from the reference (a missing index — shorter
// reconstruction — counts as an error). This is the y-axis of Fig. 3 and
// Fig. 6 of the paper.
func ErrorProfile(refs, recons []dna.Seq, length int) []float64 {
	profile := make([]float64, length)
	if len(refs) == 0 {
		return profile
	}
	n := len(refs)
	if len(recons) < n {
		n = len(recons)
	}
	for s := 0; s < n; s++ {
		ref, rec := refs[s], recons[s]
		for i := 0; i < length; i++ {
			wrong := i >= len(ref) || i >= len(rec) || ref[i] != rec[i]
			if wrong {
				profile[i]++
			}
		}
	}
	for i := range profile {
		profile[i] /= float64(n)
	}
	return profile
}

// MeanErrorRate averages an error profile — metric (ii) of §V-A.
func MeanErrorRate(profile []float64) float64 {
	if len(profile) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range profile {
		s += v
	}
	return s / float64(len(profile))
}

// MeanAbsDeviation averages |a[i]−b[i]| over indexes — metric (iii) of
// §V-A, comparing a simulated profile against the real one.
func MeanAbsDeviation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / float64(n)
}

// MeanEditDistance averages the edit distance between each reference and its
// reconstruction. Unlike the positional ErrorProfile — where one early indel
// shifts every later base into "wrong" — it charges an indel exactly once,
// so it separates "off by one insertion" from "garbage". Distances come from
// the Scratch.Levenshtein dispatcher (bit-parallel for real strand lengths), one
// Scratch amortized across the whole batch.
func MeanEditDistance(refs, recons []dna.Seq) float64 {
	n := len(refs)
	if len(recons) < n {
		n = len(recons)
	}
	if n == 0 {
		return 0
	}
	var s edit.Scratch
	total := 0
	for i := 0; i < n; i++ {
		total += s.Levenshtein(refs[i], recons[i])
	}
	return float64(total) / float64(n)
}

// PerfectCount returns how many strands were reconstructed exactly —
// metric (iv) of §V-A.
func PerfectCount(refs, recons []dna.Seq) int {
	n := len(refs)
	if len(recons) < n {
		n = len(recons)
	}
	count := 0
	for i := 0; i < n; i++ {
		if refs[i].Equal(recons[i]) {
			count++
		}
	}
	return count
}
