// Archive subcommands: crash-restartable multi-process decode.
//
//	dnastore encode-archive -in file.bin -dir archive/            # manifest + shards
//	dnastore decode-worker  -dir archive/ -out file.out           # one worker process
//	dnastore coordinate     -dir archive/ -out file.out -workers 2 # spawn+restart fleet, audit
//
// Workers claim volumes through lease files, checkpoint each committed
// volume, and may be killed and restarted at any point; the fleet converges
// to bytes identical to a single-process "pipeline -stream" decode.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"dnastore/internal/archive"
	"dnastore/internal/chaos"
	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/core"
	"dnastore/internal/sim"
)

func cmdEncodeArchive(args []string) error {
	fs := flag.NewFlagSet("encode-archive", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	dir := fs.String("dir", "", "archive directory (manifest, read shards, worker state)")
	p := codecFlags(fs)
	channel := fs.String("channel", "iid", "noise model: iid, solqc, wetlab")
	rate := fs.Float64("rate", 0.06, "aggregate per-base error rate")
	coverage := fs.Int("coverage", 10, "reads per strand")
	seed := fs.Uint64("seed", 1, "random seed")
	volumeBytes := fs.Int("volume-bytes", 1<<20, "archive bytes per volume")
	poolGroup := fs.Int("pool-group", 1, "consecutive volumes pooled through one simulated sample")
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
	info, err := os.Stat(*in)
	if err != nil {
		return err
	}
	if err := checkAddressable(c, info.Size(), *volumeBytes); err != nil {
		return err
	}
	pipe := &core.Pipeline{
		Codec:     c,
		Simulator: core.PoolSimulator{Options: sim.Options{Channel: ch, Coverage: sim.FixedCoverage(*coverage), Seed: *seed}},
	}
	inF, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer inF.Close() //dnalint:allow errflow -- read-only file: a close error cannot lose data
	m, err := archive.Build(context.Background(), pipe, inF, *dir, core.StreamOptions{
		VolumeBytes: *volumeBytes,
		PoolGroup:   *poolGroup,
	})
	if err != nil {
		return err
	}
	reads := 0
	for _, mv := range m.Volumes {
		reads += mv.Reads
	}
	fmt.Printf("archived %d bytes into %d volumes (%d simulated reads); decode with: dnastore coordinate -dir %s -out <file>\n",
		m.ArchiveBytes, len(m.Volumes), reads, *dir)
	return nil
}

// checkAddressable fails, before anything is encoded, when c's index field
// cannot address every volume of an archive of size bytes split into
// volumeBytes-sized volumes. The archive size is known here, where
// RunStream and archive.Build, reading an unbounded io.Reader, cannot check
// it.
func checkAddressable(c *codec.Codec, size int64, volumeBytes int) error {
	volumes := codec.VolumeCount(size, volumeBytes)
	if need := uint64(volumes) * c.VolumeCapacity(volumeBytes); need > c.MaxMolecules() {
		return fmt.Errorf("archive needs %d volumes × %d molecule addresses but -index-bases %d provides only %d; raise -index-bases (each step quadruples the address space)",
			volumes, c.VolumeCapacity(volumeBytes), c.Params().IndexBases, c.MaxMolecules())
	}
	return nil
}

// workerFlags registers the flags shared by decode-worker and (as a
// pass-through to its children) coordinate.
type workerFlags struct {
	seed       *uint64
	mode       *string
	algoName   *string
	retries    *int
	bestEffort *bool
	timeout    *time.Duration
	staleAfter *time.Duration
}

func registerWorkerFlags(fs *flag.FlagSet) workerFlags {
	return workerFlags{
		seed:       fs.Uint64("seed", 1, "random seed (must match across the fleet; cluster seed is derived from it)"),
		mode:       fs.String("mode", "q", "clustering signatures: q or w"),
		algoName:   fs.String("algo", "dbma", "reconstruction: bma, dbma, nw, adaptive"),
		retries:    fs.Int("retries", 0, "extra reconstruct+decode attempts with escalated cluster filtering"),
		bestEffort: fs.Bool("best-effort", false, "salvage partial volumes with a damage map instead of failing them"),
		timeout:    fs.Duration("timeout", 0, "per-stage deadline, e.g. 30s (0 = none)"),
		staleAfter: fs.Duration("stale-after", 30*time.Second, "lease staleness window before takeover"),
	}
}

// pipeline builds the decode pipeline; the codec comes from the manifest.
func (wf workerFlags) pipeline() (*core.Pipeline, core.StreamOptions, error) {
	algo, err := algorithmByName(*wf.algoName)
	if err != nil {
		return nil, core.StreamOptions{}, err
	}
	sigMode, err := modeByName(*wf.mode)
	if err != nil {
		return nil, core.StreamOptions{}, err
	}
	p := &core.Pipeline{
		Clusterer:     core.OptionsClusterer{Options: cluster.Options{Mode: sigMode, Seed: *wf.seed + 2}},
		Reconstructor: core.AlgorithmReconstructor{Algorithm: algo},
	}
	opts := core.StreamOptions{RunOptions: core.RunOptions{
		StageTimeout: *wf.timeout,
		Retries:      *wf.retries,
		BestEffort:   *wf.bestEffort,
	}}
	return p, opts, nil
}

// passthrough renders the flags back into argv form for a child worker.
func (wf workerFlags) passthrough() []string {
	args := []string{
		"-seed", strconv.FormatUint(*wf.seed, 10),
		"-mode", *wf.mode,
		"-algo", *wf.algoName,
		"-retries", strconv.Itoa(*wf.retries),
		"-timeout", wf.timeout.String(),
		"-stale-after", wf.staleAfter.String(),
	}
	if *wf.bestEffort {
		args = append(args, "-best-effort")
	}
	return args
}

func cmdDecodeWorker(args []string) error {
	fs := flag.NewFlagSet("decode-worker", flag.ExitOnError)
	dir := fs.String("dir", "", "archive directory")
	out := fs.String("out", "", "output file (shared by the fleet; written at manifest offsets)")
	owner := fs.String("owner", "", "worker identity in leases/checkpoints (default host:pid)")
	backoff := fs.Duration("backoff", 50*time.Millisecond, "initial sleep when all remaining volumes are leased")
	wf := registerWorkerFlags(fs)
	killAfter := fs.Int("kill-after", 0, "chaos: SIGKILL this process after the Nth volume output write, before its checkpoint (0 = off)")
	tornCkpts := fs.Int("torn-checkpoints", 0, "chaos: tear the first N checkpoint writes at a random byte offset (0 = off)")
	chaosSeed := fs.Uint64("chaos-seed", 0, "chaos: seed for torn-checkpoint tear offsets")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, opts, err := wf.pipeline()
	if err != nil {
		return err
	}
	o := archive.WorkerOptions{
		Owner:      *owner,
		StaleAfter: *wf.staleAfter,
		Backoff:    *backoff,
		Stream:     opts,
	}
	if *killAfter > 0 {
		killer := &chaos.ProcessKiller{AfterN: *killAfter}
		o.Hooks.OutputWritten = func(uint32) { killer.Strike() }
	}
	if *tornCkpts > 0 {
		torn := &chaos.TornCheckpoints{Seed: *chaosSeed, FirstN: *tornCkpts}
		o.Hooks.WriteCheckpoint = torn.WrapWrite(func(path string, data []byte) error {
			return archive.AtomicWriteFile(path, data, fmt.Sprintf(".%d", os.Getpid()))
		})
	}
	res, err := archive.RunWorker(context.Background(), p, *dir, *out, o)
	if err != nil {
		return err
	}
	fmt.Printf("worker done: %d decoded, %d salvaged, %d failed, %d skipped, %d takeovers, %d redone\n",
		res.Decoded, res.Salvaged, res.Failed, res.Skipped, res.Takeovers, res.Redone)
	if res.RenewalErrors > 0 {
		fmt.Printf("warning: %d lease renewals failed (survivable: duplicate work, never wrong bytes)\n", res.RenewalErrors)
	}
	return nil
}

func cmdCoordinate(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	dir := fs.String("dir", "", "archive directory")
	out := fs.String("out", "", "output file")
	workers := fs.Int("workers", 2, "worker processes to spawn (0 = audit an existing output only)")
	maxRestarts := fs.Int("max-restarts", 3, "restarts allowed per worker after abnormal exits")
	wf := registerWorkerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers > 0 {
		// Reject flags every worker would reject before spawning any.
		if _, _, err := wf.pipeline(); err != nil {
			return err
		}
		if err := superviseWorkers(*dir, *out, *workers, *maxRestarts, wf); err != nil {
			return err
		}
	}
	return auditArchive(*dir, *out)
}

// superviseWorkers runs a fleet of decode-worker child processes, restarting
// any that exit abnormally (crash-killed workers leave stale leases that the
// survivors or the restart take over).
func superviseWorkers(dir, out string, workers, maxRestarts int, wf workerFlags) error {
	type exit struct {
		idx int
		err error
	}
	exits := make(chan exit, workers)
	start := func(idx, attempt int) error {
		args := append([]string{"decode-worker",
			"-dir", dir, "-out", out,
			"-owner", fmt.Sprintf("coordinate-w%d.%d", idx, attempt),
		}, wf.passthrough()...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		go func() { exits <- exit{idx, cmd.Wait()} }()
		return nil
	}
	restarts := make([]int, workers)
	for i := 0; i < workers; i++ {
		if err := start(i, 0); err != nil {
			return err
		}
	}
	for live := workers; live > 0; {
		e := <-exits
		if e.err == nil {
			live--
			continue
		}
		if restarts[e.idx] >= maxRestarts {
			return fmt.Errorf("worker %d died (%v) and is out of restarts; state is preserved — rerun coordinate to resume", e.idx, e.err)
		}
		restarts[e.idx]++
		fmt.Fprintf(os.Stderr, "coordinate: worker %d died (%v); restarting (%d/%d)\n", e.idx, e.err, restarts[e.idx], maxRestarts)
		if err := start(e.idx, restarts[e.idx]); err != nil {
			return err
		}
	}
	return nil
}

// auditArchive verifies the output against the manifest and checkpoints and
// reports per-volume damage. It fails if any volume is uncommitted or its
// output region does not match its commit record.
func auditArchive(dir, out string) error {
	rep, err := archive.Audit(dir, out)
	if err != nil {
		return err
	}
	fmt.Printf("audit: %d volumes — %d decoded, %d salvaged, %d failed, %d missing, %d mismatched\n",
		len(rep.Volumes), rep.Decoded, rep.Salvaged, rep.Failed, rep.Missing, rep.Mismatched)
	for _, v := range rep.Degraded() {
		detail := v.Err
		if detail == "" {
			detail = fmt.Sprintf("%d damaged bytes", v.DamageBytes)
		}
		fmt.Printf("  volume %d: %s/%s — %s\n", v.ID, v.Status, v.Outcome, detail)
	}
	if !rep.Ok() {
		return fmt.Errorf("audit failed: %d volumes missing, %d mismatched — rerun coordinate or decode-worker to converge", rep.Missing, rep.Mismatched)
	}
	if rep.Clean() {
		fmt.Println("audit: output verified byte-exact against the manifest")
	} else {
		fmt.Printf("audit: output complete but degraded (%d salvaged, %d failed volumes; damaged regions are honest per their checkpoints)\n",
			rep.Salvaged, rep.Failed)
	}
	return nil
}
