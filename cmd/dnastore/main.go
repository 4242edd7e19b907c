// Command dnastore drives the DNA storage pipeline from the command line.
// Each module of the pipeline (§III of the paper) is a subcommand, so the
// stages can be run individually with intermediate files, or end-to-end:
//
//	dnastore encode     -in file.bin   -out strands.txt
//	dnastore simulate   -in strands.txt -out reads.txt -rate 0.06 -coverage 10
//	dnastore cluster    -in reads.txt  -out clusters.txt
//	dnastore reconstruct -in clusters.txt -out recon.txt -algo nw
//	dnastore decode     -in recon.txt  -out file.out
//	dnastore pipeline   -in file.bin   -out file.out          # all of the above
//
// Intermediate formats: strands/reads are one sequence per line; cluster
// files separate clusters with blank lines. Sequences use ACGT letters.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/core"
	"dnastore/internal/dna"
	"dnastore/internal/fastq"
	"dnastore/internal/obs"
	"dnastore/internal/primer"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = cmdEncode(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "reconstruct":
		err = cmdReconstruct(os.Args[2:])
	case "preprocess":
		err = cmdPreprocess(os.Args[2:])
	case "decode":
		err = cmdDecode(os.Args[2:])
	case "pipeline":
		err = cmdPipeline(os.Args[2:])
	case "encode-archive":
		err = cmdEncodeArchive(os.Args[2:])
	case "decode-worker":
		err = cmdDecodeWorker(os.Args[2:])
	case "coordinate":
		err = cmdCoordinate(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnastore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dnastore <encode|simulate|preprocess|cluster|reconstruct|decode|pipeline> [flags]
       dnastore <encode-archive|decode-worker|coordinate> [flags]   # crash-restartable multi-process decode
run "dnastore <subcommand> -h" for flags`)
}

// codecFlags registers the shared codec parameters on fs.
func codecFlags(fs *flag.FlagSet) *codec.Params {
	p := &codec.Params{}
	fs.IntVar(&p.N, "n", 150, "molecules per encoding unit")
	fs.IntVar(&p.K, "k", 120, "data molecules per unit (rest is RS parity)")
	fs.IntVar(&p.PayloadBytes, "payload", 30, "payload bytes per molecule (4 bases each)")
	fs.IntVar(&p.IndexBases, "index-bases", 8, "index field width in bases (4^n molecule addresses; widen for multi-volume streaming)")
	fs.Uint64Var(&p.Seed, "codec-seed", 42, "scrambler seed (must match between encode and decode)")
	fs.String("layout", "baseline", "matrix layout: baseline or gini")
	return p
}

func resolveLayout(fs *flag.FlagSet, p *codec.Params) error {
	switch fs.Lookup("layout").Value.String() {
	case "baseline", "":
		p.Layout = codec.BaselineLayout{}
	case "gini":
		p.Layout = codec.GiniLayout{}
	default:
		return fmt.Errorf("unknown layout %q", fs.Lookup("layout").Value.String())
	}
	return nil
}

func readSeqLines(path string) ([]dna.Seq, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //dnalint:allow errflow -- read-only file: a close error cannot lose data
	var out []dna.Seq
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		s, err := dna.FromString(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func writeSeqLines(path string, seqs []dna.Seq) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		// A failed close can drop buffered writes; surface it unless an
		// earlier error already explains the failure.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	for _, s := range seqs {
		if _, err := fmt.Fprintln(w, s.String()); err != nil {
			return err
		}
	}
	return w.Flush()
}

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	out := fs.String("out", "", "output strands file (one sequence per line)")
	p := codecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := resolveLayout(fs, p); err != nil {
		return err
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	c, err := codec.NewCodec(*p)
	if err != nil {
		return err
	}
	strands, err := c.EncodeFile(data)
	if err != nil {
		return err
	}
	if err := writeSeqLines(*out, strands); err != nil {
		return err
	}
	logical, physical := c.Density(len(data))
	fmt.Printf("encoded %d bytes into %d strands of %d nt (%.2f bits/nt logical, %.2f bits/nt physical)\n",
		len(data), len(strands), c.StrandLen(), logical, physical)
	return nil
}

func channelFromFlags(name string, rate float64) (sim.Channel, error) {
	switch name {
	case "iid":
		return sim.CalibratedIID(rate), nil
	case "solqc":
		return sim.DefaultSOLQC(rate), nil
	case "wetlab":
		return sim.NewReferenceWetlab(), nil
	default:
		return nil, fmt.Errorf("unknown channel %q (iid, solqc, wetlab)", name)
	}
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	in := fs.String("in", "", "strands file")
	out := fs.String("out", "", "output reads file")
	channel := fs.String("channel", "iid", "noise model: iid, solqc, wetlab")
	rate := fs.Float64("rate", 0.06, "aggregate per-base error rate (iid, solqc)")
	coverage := fs.Int("coverage", 10, "mean reads per strand")
	skew := fs.Float64("skew", 0, "log-normal coverage skew sigma (0 = fixed coverage)")
	dropout := fs.Float64("dropout", 0, "probability a strand is lost entirely")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	strands, err := readSeqLines(*in)
	if err != nil {
		return err
	}
	ch, err := channelFromFlags(*channel, *rate)
	if err != nil {
		return err
	}
	var cov sim.CoverageModel = sim.FixedCoverage(*coverage)
	if *skew > 0 {
		cov = sim.SkewedCoverage{Mean: float64(*coverage), Sigma: *skew}
	}
	reads, err := sim.SimulatePoolContext(context.Background(), strands, sim.Options{
		Channel: ch, Coverage: cov, Dropout: *dropout, Seed: *seed,
	})
	if err != nil {
		return err
	}
	if err := writeSeqLines(*out, sim.Sequences(reads)); err != nil {
		return err
	}
	fmt.Printf("simulated %d reads from %d strands via %s\n", len(reads), len(strands), ch.Name())
	return nil
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	in := fs.String("in", "", "reads file")
	out := fs.String("out", "", "output clusters file (blank-line separated)")
	mode := fs.String("mode", "q", "signature mode: q (q-gram) or w (w-gram)")
	seed := fs.Uint64("seed", 2, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sigMode, err := modeByName(*mode)
	if err != nil {
		return err
	}
	reads, err := readSeqLines(*in)
	if err != nil {
		return err
	}
	res, err := cluster.ClusterContext(context.Background(), reads, cluster.Options{Mode: sigMode, Seed: *seed})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, members := range res.Clusters {
		if i > 0 {
			fmt.Fprintln(w)
		}
		for _, m := range members {
			fmt.Fprintln(w, reads[m].String())
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //dnalint:allow errflow -- flush already failed; the close error cannot add information
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st := res.Stats
	fmt.Printf("clustered %d reads into %d clusters (θ=%d/%d, %d merges, %d edit-distance calls)\n",
		len(reads), len(res.Clusters), st.ThetaLow, st.ThetaHigh, st.Merges, st.EditDistanceCalls)
	return nil
}

// cmdPreprocess implements the §VIII wetlab-data path: FASTQ in, oriented
// and primer-trimmed reads out, ready for the cluster subcommand.
func cmdPreprocess(args []string) error {
	fs := flag.NewFlagSet("preprocess", flag.ExitOnError)
	in := fs.String("in", "", "FASTQ file from the sequencer")
	out := fs.String("out", "", "output reads file (one payload sequence per line)")
	forward := fs.String("forward", "", "forward primer sequence (5' flank)")
	reverse := fs.String("reverse", "", "reverse primer sequence (3' flank)")
	tol := fs.Int("tol", 3, "edits tolerated per primer when matching")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fwd, err := dna.FromString(*forward)
	if err != nil {
		return fmt.Errorf("forward primer: %w", err)
	}
	rev, err := dna.FromString(*reverse)
	if err != nil {
		return fmt.Errorf("reverse primer: %w", err)
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close() //dnalint:allow errflow -- read-only file: a close error cannot lose data
	records, err := fastq.Parse(f)
	if err != nil {
		return err
	}
	inner, stats := fastq.Preprocess(records, primer.Pair{Forward: fwd, Reverse: rev}, *tol)
	if err := writeSeqLines(*out, inner); err != nil {
		return err
	}
	fmt.Printf("preprocessed %d records: kept %d (%d flipped 3'→5'), rejected %d invalid, %d unmatched, %d untrimmable\n",
		stats.Total, stats.Kept, stats.ReverseOriented,
		stats.InvalidBases, stats.UnmatchedPrimers, stats.TrimFailures)
	return nil
}

func readClusters(path string) ([][]dna.Seq, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //dnalint:allow errflow -- read-only file: a close error cannot lose data
	var clusters [][]dna.Seq
	var current []dna.Seq
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if len(current) > 0 {
				clusters = append(clusters, current)
				current = nil
			}
			continue
		}
		s, err := dna.FromString(line)
		if err != nil {
			return nil, err
		}
		current = append(current, s)
	}
	if len(current) > 0 {
		clusters = append(clusters, current)
	}
	return clusters, sc.Err()
}

// modeByName maps a -mode flag value to its clustering signature mode.
func modeByName(name string) (cluster.SignatureMode, error) {
	switch name {
	case "q":
		return cluster.QGram, nil
	case "w":
		return cluster.WGram, nil
	default:
		return 0, fmt.Errorf("unknown clustering mode %q (q, w)", name)
	}
}

func algorithmByName(name string) (recon.Algorithm, error) {
	switch name {
	case "bma":
		return recon.BMA{}, nil
	case "dbma":
		return recon.DoubleSidedBMA{}, nil
	case "nw", "nwa":
		return recon.NW{}, nil
	case "adaptive":
		return recon.Adaptive{}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (bma, dbma, nw, adaptive)", name)
	}
}

func cmdReconstruct(args []string) error {
	fs := flag.NewFlagSet("reconstruct", flag.ExitOnError)
	in := fs.String("in", "", "clusters file")
	out := fs.String("out", "", "output consensus strands file")
	algoName := fs.String("algo", "dbma", "algorithm: bma, dbma, nw, adaptive")
	length := fs.Int("len", 0, "target strand length (0 = longest read)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clusters, err := readClusters(*in)
	if err != nil {
		return err
	}
	algo, err := algorithmByName(*algoName)
	if err != nil {
		return err
	}
	target := *length
	if target == 0 {
		for _, c := range clusters {
			for _, r := range c {
				if len(r) > target {
					target = len(r)
				}
			}
		}
	}
	recons, err := recon.ReconstructAllContext(context.Background(), clusters, target, algo, 0)
	if err != nil {
		return err
	}
	var nonEmpty []dna.Seq
	for _, r := range recons {
		if len(r) > 0 {
			nonEmpty = append(nonEmpty, r)
		}
	}
	if err := writeSeqLines(*out, nonEmpty); err != nil {
		return err
	}
	fmt.Printf("reconstructed %d strands from %d clusters with %s\n", len(nonEmpty), len(clusters), algo.Name())
	return nil
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	in := fs.String("in", "", "reconstructed strands file")
	out := fs.String("out", "", "output file")
	bestEffort := fs.Bool("best-effort", false, "salvage a partial file with a damage map instead of failing on a corrupt header")
	p := codecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := resolveLayout(fs, p); err != nil {
		return err
	}
	strands, err := readSeqLines(*in)
	if err != nil {
		return err
	}
	c, err := codec.NewCodec(*p)
	if err != nil {
		return err
	}
	data, report, err := c.DecodeFileContext(context.Background(), strands, codec.DecodeOptions{BestEffort: *bestEffort})
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("decoded %d bytes (%s)\n", len(data), report)
	if !report.Clean() {
		fmt.Println("warning: some codewords exceeded the code's correction capability")
	}
	if report.Partial {
		fmt.Printf("warning: partial decode; do not trust units %v\n", report.DamagedUnits())
	}
	return nil
}

func cmdPipeline(args []string) (err error) {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	out := fs.String("out", "", "output file (recovered copy)")
	metricsJSON := fs.String("metrics-json", "", `write per-stage observability counters as JSON to this file after the run ("-" for stdout)`)
	p := codecFlags(fs)
	channel := fs.String("channel", "iid", "noise model: iid, solqc, wetlab")
	rate := fs.Float64("rate", 0.06, "aggregate per-base error rate")
	coverage := fs.Int("coverage", 10, "reads per strand")
	mode := fs.String("mode", "q", "clustering signatures: q or w")
	algoName := fs.String("algo", "dbma", "reconstruction: bma, dbma, nw, adaptive")
	seed := fs.Uint64("seed", 1, "random seed")
	timeout := fs.Duration("timeout", 0, "per-stage deadline, e.g. 30s (0 = none)")
	retries := fs.Int("retries", 0, "extra reconstruct+decode attempts with escalated cluster filtering")
	bestEffort := fs.Bool("best-effort", false, "salvage a partial file with a damage map instead of failing")
	stream := fs.Bool("stream", false, "streaming volume-sharded run: bounded memory, stages overlapped across volumes")
	volumeBytes := fs.Int("volume-bytes", 1<<20, "archive bytes per volume in streaming mode")
	inflight := fs.Int("inflight", 0, "max volumes in the pipeline at once in streaming mode (0 = auto)")
	poolGroup := fs.Int("pool-group", 1, "consecutive volumes pooled through one simulated sample (streaming mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := resolveLayout(fs, p); err != nil {
		return err
	}
	c, err := codec.NewCodec(*p)
	if err != nil {
		return err
	}
	ch, err := channelFromFlags(*channel, *rate)
	if err != nil {
		return err
	}
	algo, err := algorithmByName(*algoName)
	if err != nil {
		return err
	}
	sigMode, err := modeByName(*mode)
	if err != nil {
		return err
	}
	pipe := core.New(c,
		sim.Options{Channel: ch, Coverage: sim.FixedCoverage(*coverage), Seed: *seed},
		cluster.Options{Mode: sigMode, Seed: *seed + 2}, algo)
	if *metricsJSON != "" {
		// A run publishes its per-stage counters into the pipeline's sink
		// registry; snapshot it whichever way the run ends, so a failed run
		// still leaves its telemetry behind.
		pipe.Metrics = obs.NewRegistry()
		defer func() {
			if werr := writeMetricsJSON(*metricsJSON, pipe.Metrics); werr != nil && err == nil {
				err = werr
			}
		}()
	}
	runOpts := core.RunOptions{
		StageTimeout: *timeout,
		Retries:      *retries,
		BestEffort:   *bestEffort,
	}
	if *stream {
		if info, serr := os.Stat(*in); serr == nil {
			if err := checkAddressable(c, info.Size(), *volumeBytes); err != nil {
				return err
			}
		}
		return runStreamPipeline(pipe, *in, *out, core.StreamOptions{
			RunOptions:  runOpts,
			VolumeBytes: *volumeBytes,
			InFlight:    *inflight,
			PoolGroup:   *poolGroup,
		})
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := pipe.RunContext(context.Background(), data, runOpts)
	wall := time.Since(start)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, res.Data, 0o644); err != nil {
		return err
	}
	match := "RECOVERED EXACTLY"
	if string(res.Data) != string(data) {
		match = "CORRUPTED"
	}
	fmt.Printf("%s: %d bytes → %d strands → %d reads → %d clusters → %d bytes\n",
		match, len(data), res.Strands, res.Reads, res.Clusters, len(res.Data))
	if res.Attempts > 1 {
		fmt.Printf("retries: decode needed %d attempts\n", res.Attempts)
	}
	if res.Report.Partial {
		fmt.Printf("warning: partial recovery; do not trust units %v\n", res.Report.DamagedUnits())
	}
	printLatency(res.Stages, wall, false)
	fmt.Printf("decode report: %s\n", res.Report)
	return nil
}

// printLatency prints one line with the busy time of every stage the run
// recorded, their sum, the run's wall time and, when overlap is set, the
// sum over the wall time: above 1 when stages of different volumes ran at
// once.
func printLatency(stages []obs.StageSnapshot, wall time.Duration, overlap bool) {
	var busy time.Duration
	fmt.Print("latency:")
	for _, s := range stages {
		busy += time.Duration(s.BusyNanos)
		fmt.Printf(" %s %v |", s.Stage, time.Duration(s.BusyNanos))
	}
	fmt.Printf(" busy %v | wall %v", busy, wall)
	if overlap {
		ratio := 0.0
		if wall > 0 {
			ratio = float64(busy) / float64(wall)
		}
		fmt.Printf(" | overlap %.2fx", ratio)
	}
	fmt.Println()
}

// writeMetricsJSON dumps the registry's stage snapshots as indented JSON to
// path, or to stdout when path is "-".
func writeMetricsJSON(path string, reg *obs.Registry) error {
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runStreamPipeline pushes the input file through Pipeline.RunStream: the
// archive is processed volume by volume with bounded memory and the
// recovered bytes stream straight into the output file.
func runStreamPipeline(pipe *core.Pipeline, in, out string, opts core.StreamOptions) (err error) {
	inF, err := os.Open(in)
	if err != nil {
		return err
	}
	defer inF.Close() //dnalint:allow errflow -- read-only file: a close error cannot lose data
	outF, err := os.Create(out)
	if err != nil {
		return err
	}
	defer func() {
		// A failed close can drop buffered writes; surface it unless an
		// earlier error already explains the failure.
		if cerr := outF.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(outF, 1<<20)
	start := time.Now()
	res, err := pipe.RunStream(context.Background(), bufio.NewReaderSize(inF, 1<<20), w, opts)
	wall := time.Since(start)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		// The aggregate error ("N of M volumes failed") hides the cause;
		// the per-volume errors say what actually went wrong.
		shown := 0
		for _, v := range res.Volumes {
			if v.Err != nil && shown < 3 {
				fmt.Fprintf(os.Stderr, "volume %d: %v\n", v.ID, v.Err)
				shown++
			}
		}
		if more := res.FailedVolumes - shown; more > 0 {
			fmt.Fprintf(os.Stderr, "... and %d more failed volumes\n", more)
		}
		return err
	}
	status := "RECOVERED"
	if res.FailedVolumes > 0 {
		status = fmt.Sprintf("PARTIAL (%d/%d volumes damaged, regions zero-filled)", res.FailedVolumes, len(res.Volumes))
	}
	fmt.Printf("%s: %d bytes → %d strands → %d reads → %d clusters → %d bytes across %d volumes\n",
		status, res.BytesIn, res.Strands, res.Reads, res.Clusters, res.BytesOut, len(res.Volumes))
	if res.ClusterStats.Spilled > 0 {
		fmt.Printf("demux: %d reads spilled (unroutable index prefix)\n", res.ClusterStats.Spilled)
	}
	printLatency(res.Stages, wall, true)
	return nil
}
