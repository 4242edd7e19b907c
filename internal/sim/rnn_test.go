package sim

import (
	"testing"

	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

func TestTrainRNNLossDecreases(t *testing.T) {
	if testing.Short() {
		t.Skip("RNN training in -short mode")
	}
	ref := NewReferenceWetlab()
	strands := randStrands(61, 40, 30)
	pairs := GeneratePairs(62, ref, strands, 2)
	_, losses := TrainRNN(pairs, RNNConfig{Hidden: 12, Embed: 6, Epochs: 3, Seed: 63})
	if len(losses) != 3 {
		t.Fatalf("expected 3 epoch losses, got %d", len(losses))
	}
	if losses[2] >= losses[0] {
		t.Fatalf("loss did not decrease: %v", losses)
	}
}

func TestRNNTransmitProducesPlausibleReads(t *testing.T) {
	if testing.Short() {
		t.Skip("RNN training in -short mode")
	}
	// Train on a light channel and check that generated reads stay near the
	// clean strand (the model learned mostly-copy behaviour).
	ch := CalibratedIID(0.02)
	strands := randStrands(64, 60, 24)
	pairs := GeneratePairs(65, ch, strands, 3)
	model, _ := TrainRNN(pairs, RNNConfig{Hidden: 20, Embed: 8, Epochs: 14, Seed: 66})
	rng := xrand.New(67)
	closeEnough := 0
	var es edit.Scratch
	const trials = 20
	for i := 0; i < trials; i++ {
		s := strands[i]
		read := model.Transmit(rng, s)
		if len(read) == 0 {
			continue
		}
		if es.Levenshtein(read, s) <= len(s)/2 {
			closeEnough++
		}
	}
	if closeEnough < trials*6/10 {
		t.Fatalf("only %d/%d generated reads within half-length edit distance", closeEnough, trials)
	}
}

func TestRNNTransmitEmptyStrand(t *testing.T) {
	model := &RNNSimulator{}
	if got := model.Transmit(xrand.New(1), nil); got != nil {
		t.Fatal("empty strand should give nil read")
	}
	_ = model.Name()
}

func TestRNNSamplesDistinctReads(t *testing.T) {
	if testing.Short() {
		t.Skip("RNN training in -short mode")
	}
	ch := CalibratedIID(0.1)
	strands := randStrands(68, 30, 20)
	pairs := GeneratePairs(69, ch, strands, 2)
	model, _ := TrainRNN(pairs, RNNConfig{Hidden: 12, Embed: 6, Epochs: 2, Seed: 70})
	rng := xrand.New(71)
	s := strands[0]
	first := model.Transmit(rng, s)
	distinct := false
	for i := 0; i < 10 && !distinct; i++ {
		if !model.Transmit(rng, s).Equal(first) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("sampling produced 11 identical reads; simulator is not stochastic")
	}
	var _ Channel = model // must satisfy the Channel interface
}
