package bench

import "testing"

func TestTableIRNNTrainsAndGenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("GRU training in -short mode")
	}
	cfg := DefaultTableIRNN()
	cfg.TrainStrands, cfg.TestStrands = 80, 50
	cfg.StrandLen, cfg.Hidden, cfg.Epochs = 24, 14, 3
	res, err := TableIRNN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if len(res.Losses) != cfg.Epochs {
		t.Fatalf("losses = %v", res.Losses)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatalf("GRU loss did not decrease: %v", res.Losses)
	}
	// The GRU dataset must at least be harder to reconstruct than noiseless
	// input and produce sensible profiles.
	gru := res.Row("GRU")
	if gru.MeanErr <= 0 {
		t.Fatal("GRU channel injected no errors")
	}
	if len(gru.Profile) != cfg.StrandLen {
		t.Fatalf("profile length %d", len(gru.Profile))
	}
}
