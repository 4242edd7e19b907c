package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
)

func TestSeqLinesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seqs.txt")
	seqs := []dna.Seq{
		dna.MustFromString("ACGT"),
		dna.MustFromString("GGGGCCCC"),
		dna.MustFromString("T"),
	}
	if err := writeSeqLines(path, seqs); err != nil {
		t.Fatal(err)
	}
	got, err := readSeqLines(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seqs) {
		t.Fatalf("got %d seqs", len(got))
	}
	for i := range seqs {
		if !got[i].Equal(seqs[i]) {
			t.Fatalf("seq %d mismatch", i)
		}
	}
}

func TestReadSeqLinesSkipsBlanksRejectsJunk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seqs.txt")
	if err := os.WriteFile(path, []byte("ACGT\n\nTTAA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readSeqLines(path)
	if err != nil || len(got) != 2 {
		t.Fatalf("got %v %v", got, err)
	}
	if err := os.WriteFile(path, []byte("ACGX\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSeqLines(path); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestReadClustersBlankSeparated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clusters.txt")
	content := "ACGT\nACGA\n\nTTTT\n\n\nGGGG\nGGGC\nGGCC\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	clusters, err := readClusters(path)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{2, 1, 3}
	if len(clusters) != len(sizes) {
		t.Fatalf("got %d clusters", len(clusters))
	}
	for i, want := range sizes {
		if len(clusters[i]) != want {
			t.Fatalf("cluster %d has %d reads, want %d", i, len(clusters[i]), want)
		}
	}
}

func TestAlgorithmByName(t *testing.T) {
	for name, want := range map[string]string{
		"bma":  "bma",
		"dbma": "double-sided-bma",
		"nw":   "needleman-wunsch",
		"nwa":  "needleman-wunsch",
	} {
		algo, err := algorithmByName(name)
		if err != nil || algo.Name() != want {
			t.Errorf("algorithmByName(%q) = %v, %v", name, algo, err)
		}
	}
	if _, err := algorithmByName("magic"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestModeByName(t *testing.T) {
	for name, want := range map[string]cluster.SignatureMode{
		"q": cluster.QGram,
		"w": cluster.WGram,
	} {
		mode, err := modeByName(name)
		if err != nil || mode != want {
			t.Errorf("modeByName(%q) = %v, %v", name, mode, err)
		}
	}
	for _, name := range []string{"", "Q", "x", "qgram"} {
		if _, err := modeByName(name); err == nil {
			t.Errorf("modeByName(%q) accepted an unknown mode", name)
		}
	}
}

func TestCheckAddressable(t *testing.T) {
	// The largest archive whose volumes all fit the index field passes; one
	// byte more needs another volume and fails.
	c, err := codec.NewCodec(codec.Params{N: 30, K: 20, PayloadBytes: 15, IndexBases: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const volumeBytes = 600
	fits := int64(c.MaxMolecules()/c.VolumeCapacity(volumeBytes)) * volumeBytes
	if err := checkAddressable(c, fits, volumeBytes); err != nil {
		t.Fatalf("%d bytes: %v", fits, err)
	}
	if err := checkAddressable(c, fits+1, volumeBytes); err == nil {
		t.Fatalf("%d bytes accepted beyond the index field", fits+1)
	}
}

func TestChannelFromFlags(t *testing.T) {
	for name, want := range map[string]string{
		"iid":    "rashtchian-iid",
		"solqc":  "solqc",
		"wetlab": "reference-wetlab",
	} {
		ch, err := channelFromFlags(name, 0.05)
		if err != nil || ch.Name() != want {
			t.Errorf("channelFromFlags(%q) = %v, %v", name, ch, err)
		}
	}
	if _, err := channelFromFlags("quantum", 0.05); err == nil {
		t.Fatal("unknown channel accepted")
	}
}

func TestResolveLayout(t *testing.T) {
	build := func(name string) (*flag.FlagSet, *codec.Params) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		p := codecFlags(fs)
		if err := fs.Parse([]string{"-layout", name}); err != nil {
			t.Fatal(err)
		}
		return fs, p
	}
	fs, p := build("baseline")
	if err := resolveLayout(fs, p); err != nil || p.Layout.Name() != "baseline" {
		t.Fatalf("baseline: %v %v", p.Layout, err)
	}
	fs, p = build("gini")
	if err := resolveLayout(fs, p); err != nil || p.Layout.Name() != "gini" {
		t.Fatalf("gini: %v %v", p.Layout, err)
	}
	fs, p = build("zigzag")
	if err := resolveLayout(fs, p); err == nil {
		t.Fatal("unknown layout accepted")
	}
}

func TestCmdEncodeDecodeFiles(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	strands := filepath.Join(dir, "strands.txt")
	out := filepath.Join(dir, "out.bin")
	payload := []byte("cli subcommands, tested without a subprocess")
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	printed := captureStdout(t, func() error {
		return cmdEncode([]string{"-in", in, "-out", strands, "-n", "24", "-k", "16", "-payload", "10"})
	})
	// The logical figure counts payload bases only; the physical one counts
	// whole strands, index included (Codec.Density). Index width and seed
	// are the CLI's defaults.
	c, err := codec.NewCodec(codec.Params{N: 24, K: 16, PayloadBytes: 10, IndexBases: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	logical, physical := c.Density(len(payload))
	for _, want := range []string{
		fmt.Sprintf("%.2f bits/nt logical", logical),
		fmt.Sprintf("%.2f bits/nt physical", physical),
	} {
		if !strings.Contains(printed, want) {
			t.Errorf("encode printed %q, want it to contain %q", printed, want)
		}
	}
	if err := cmdDecode([]string{"-in", strands, "-out", out, "-n", "24", "-k", "16", "-payload", "10"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatal("CLI encode/decode round trip mismatch")
	}
}

func TestCmdPipelineFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	payload := []byte("whole pipeline through the CLI entry point")
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdPipeline([]string{
		"-in", in, "-out", out,
		"-n", "24", "-k", "16", "-payload", "10",
		"-rate", "0.04", "-coverage", "8", "-algo", "nw",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatal("CLI pipeline round trip mismatch")
	}
}

// loadMetricsJSON reads a -metrics-json snapshot back and indexes it by
// stage name.
func loadMetricsJSON(t *testing.T, path string) map[string]obs.StageSnapshot {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []obs.StageSnapshot
	if err := json.Unmarshal(raw, &snaps); err != nil {
		t.Fatalf("metrics file is not a snapshot list: %v", err)
	}
	byStage := make(map[string]obs.StageSnapshot, len(snaps))
	for _, s := range snaps {
		byStage[s.Stage] = s
	}
	return byStage
}

func TestCmdPipelineMetricsJSON(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	metrics := filepath.Join(dir, "metrics.json")
	payload := []byte("observability spine surfaces through the CLI")
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdPipeline([]string{
		"-in", in, "-out", out,
		"-n", "24", "-k", "16", "-payload", "10",
		"-rate", "0.04", "-coverage", "8", "-algo", "nw",
		"-metrics-json", metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	byStage := loadMetricsJSON(t, metrics)
	for _, stage := range []string{"encode", "simulate", "cluster", "reconstruct", "decode"} {
		s, ok := byStage[stage]
		if !ok {
			t.Fatalf("stage %q missing from metrics snapshot (have %v)", stage, byStage)
		}
		if s.Calls < 1 {
			t.Errorf("stage %q has %d calls, want >= 1", stage, s.Calls)
		}
		if s.BusyNanos < 0 {
			t.Errorf("stage %q has negative busy time", stage)
		}
	}
	if enc := byStage["encode"]; enc.ItemsIn != int64(len(payload)) {
		t.Errorf("encode items_in = %d, want %d", enc.ItemsIn, len(payload))
	}
	if dec := byStage["decode"]; dec.ItemsOut != int64(len(payload)) {
		t.Errorf("decode items_out = %d, want %d", dec.ItemsOut, len(payload))
	}
}

func TestCmdPipelineStreamMetricsJSON(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	metrics := filepath.Join(dir, "metrics.json")
	payload := bytes.Repeat([]byte("streaming metrics through the CLI entry point! "), 40)
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdPipeline([]string{
		"-in", in, "-out", out,
		"-n", "24", "-k", "16", "-payload", "10",
		"-rate", "0.02", "-coverage", "8", "-algo", "dbma",
		"-stream", "-volume-bytes", "600", "-inflight", "4",
		"-metrics-json", metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	byStage := loadMetricsJSON(t, metrics)
	// The streaming run additionally exposes the demux stage the batch path
	// does not have; every volume's decode publishes into the same sink.
	for _, stage := range []string{"encode", "simulate", "demux", "cluster", "reconstruct", "decode"} {
		s, ok := byStage[stage]
		if !ok {
			t.Fatalf("stage %q missing from stream metrics snapshot", stage)
		}
		if s.Calls < 1 {
			t.Errorf("stage %q has %d calls, want >= 1", stage, s.Calls)
		}
	}
	if clu := byStage["cluster"]; clu.Calls < 2 {
		t.Errorf("cluster ran %d times, want one call per volume (>= 2)", clu.Calls)
	}
}

func TestCmdPipelineStream(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	payload := bytes.Repeat([]byte("streaming volume-sharded pipeline through the CLI! "), 40)
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdPipeline([]string{
		"-in", in, "-out", out,
		"-n", "24", "-k", "16", "-payload", "10",
		"-rate", "0.02", "-coverage", "8", "-algo", "dbma",
		"-stream", "-volume-bytes", "600", "-inflight", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("CLI streaming pipeline round trip mismatch")
	}
}

// captureStdout runs f with os.Stdout redirected to a temporary file and
// returns what f printed there.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	stdout := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}
