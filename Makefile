# DNA Storage Toolkit — common developer entry points.

GO ?= go

.PHONY: all build test test-short race vet fmt lint fuzz-smoke perfbench-test bench bench-json bench-smoke bench-ci bench-compare stream-smoke archive-smoke experiments experiments-quick examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The race detector pass CI runs: the fault-tolerant runtime's worker pools,
# cancellation flags and chaos injection are all concurrency-heavy. The
# streaming pipeline (internal/core), archive lease/checkpoint runtime
# (internal/archive), shared execution layer (internal/exec) and
# observability spine (internal/obs) drop -short so their pump, lease,
# dispatch and counter paths run fully under the detector; everything else
# keeps the fast -short pass.
race:
	$(GO) test -race -short $$($(GO) list ./... | grep -v -e '/internal/archive$$' -e '/internal/core$$' -e '/internal/exec$$' -e '/internal/obs$$')
	$(GO) test -race ./internal/archive ./internal/core ./internal/exec ./internal/obs

# The repository's own invariant analyzer (cmd/dnalint): determinism,
# context flow, panic boundaries, error flow, seed flow, goroutine
# lifecycle, durable writes, scratch ownership and hot-path allocations.
# Exits non-zero on findings (stale allow directives included); suppress
# intentional sites with //dnalint:allow <analyzer> -- <reason>.
lint:
	$(GO) run ./cmd/dnalint ./...

# Short native-fuzzing pass over the codec pipeline's fuzz targets
# (30 s each); CI runs this as a smoke test, local fuzzing can go longer
# with e.g. `go test ./internal/rs -fuzz FuzzRSDecode -fuzztime 10m`.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/rs -run '^$$' -fuzz '^FuzzRSDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzDecodeFile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzManifestDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fastq -run '^$$' -fuzz '^FuzzFastqParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/edit -run '^$$' -fuzz '^FuzzLevenshtein$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/edit -run '^$$' -fuzz '^FuzzMyersVsDP$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzSigDistance$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/recon -run '^$$' -fuzz '^FuzzReconDispatch$$' -fuzztime $(FUZZTIME)

# The end-to-end benchmark's own test: every workload at a quick size, every
# metric BENCHMARK.json names printed with its unit, and corrupted outputs
# caught. perfbench is a module of its own (perfbench/go.mod), so the root
# `go vet ./...` and `go test ./...` never build it; CI runs this target so a
# change that breaks an entry point the benchmark drives fails at once.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Microbenchmarks in every package plus the table/figure reproduction
# benchmarks at the repository root.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Stage-throughput harness: strands/sec, bytes/sec and allocs/op per
# pipeline stage, with the frozen seed kernels as the allocation baseline,
# plus the end-to-end streaming benchmark (peak heap, overlap ratio, batch
# comparison at 1/16/64 MiB — the full run takes a few minutes).
# Emits the BENCH_*.json trajectory the ROADMAP re-anchor reads.
BENCH_JSON ?= BENCH_pr9.json
bench-json:
	$(GO) run ./cmd/experiments -run throughput -bench-json $(BENCH_JSON)

# CI smoke variant: unit-test scale stages and a 1 MiB streaming run,
# guards against accidental quadratic regressions while still uploading a
# comparable artifact.
bench-smoke:
	$(GO) run ./cmd/experiments -run throughput -quick -bench-json $(BENCH_JSON)

# CI stage-benchmark variant: full-scale stage/edit-kernel rows (so they are
# comparable against the committed baseline and enforceable) but no
# streaming runs, which remain a local full-scale measurement.
bench-ci:
	$(GO) run ./cmd/experiments -run throughput -stream-mib off -bench-json $(BENCH_JSON)

# Diff the freshly measured bench JSON against the committed previous one:
# fails on a >20% rate drop in any stage, edit-kernel or stream row when the
# two runs share a config, warns (exit 0) when they don't (e.g. quick CI run
# vs the committed full-scale baseline). BENCH_ENFORCE narrows which rows
# block: CI passes "cluster,edit-kernel,recon" so those rows fail the build
# while the rest stay advisory; empty (the default) blocks on every row.
BENCH_PREV ?= BENCH_pr8.json
BENCH_ENFORCE ?=
bench-compare:
	$(GO) run ./cmd/benchcompare -old $(BENCH_PREV) -new $(BENCH_JSON) -enforce "$(BENCH_ENFORCE)"

# 16 MiB end-to-end streaming round trip under the race detector with a
# GOMEMLIMIT far below what the batch path would need — the CI proof that
# the streaming runtime's memory stays bounded by in-flight volumes, not
# archive size. Opt-in via env var so plain `go test ./...` stays fast.
stream-smoke:
	DNASTORE_STREAM_SMOKE=1 GOMEMLIMIT=256MiB $(GO) test -race -run TestStreamSmoke -v -timeout 30m ./internal/core

# Crash-resume proof for the distributed archive runtime: two real worker
# processes over one archive, one SIGKILLed mid-volume and restarted, the
# fleet's output diffed against a single-process RunStream — under the race
# detector. Opt-in via env var so plain `go test ./...` stays fast.
archive-smoke:
	DNASTORE_ARCHIVE_SMOKE=1 $(GO) test -race -run TestArchiveCrashResumeSmoke -v -timeout 20m ./internal/archive

# Regenerate every table and figure of the paper at full scale.
experiments:
	$(GO) run ./cmd/experiments -run all

experiments-quick:
	$(GO) run ./cmd/experiments -run all -quick

# Smoke-run every example binary.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/imagemap
	$(GO) run ./examples/wetlabreplay
	$(GO) run ./examples/clustertuning
	$(GO) run ./examples/randomaccess

clean:
	$(GO) clean ./...
