// Command perfbench is the end-to-end benchmark of the DNA storage toolkit.
//
// It drives the toolkit only through its public entry points —
// core.Pipeline.RunStream, core.Pipeline.Run, and archive.Build,
// archive.RunWorker and archive.Audit — on three seeded workloads, checks
// every output, and prints one JSON line as its last line of output: the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced run (--trace 1). NOTES.md gives the reasons for each workload and
// the metric each layer should move.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload stream-roundtrip --seed 1 --seconds 35 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// deadline bounds a whole run, so a run that cannot finish fails instead of
// hanging.
const deadline = 170 * time.Second

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "stream-roundtrip, noisy-batch or archive-restore")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every input derives from it")
	secs := flag.Float64("seconds", 35, "how long to repeat the measured operation")
	trace := flag.Int("trace", 0, "1: run the traced comparison and print per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/perfbench-work", "directory for archives and span files")
	flag.Parse()
	o.seconds = time.Duration(*secs * float64(time.Second))
	o.trace = *trace == 1
	o.sizes = fullSize
	o.log = os.Stderr
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	fmt.Fprintf(os.Stderr, "perfbench %s seed %d trace %v: GOMAXPROCS %d, %d CPUs\n",
		o.workload, o.seed, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
	fmt.Println(string(line))
}
