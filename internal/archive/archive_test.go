package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dnastore/internal/chaos"
	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/core"
	"dnastore/internal/dna"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// The crash tests re-exec this test binary as a real worker process (so it
// can be SIGKILLed for real). TestMain routes the child into workerMain
// before the testing framework takes over.
const (
	envWorker      = "DNASTORE_ARCHIVE_WORKER"
	envDir         = "DNASTORE_ARCHIVE_DIR"
	envOut         = "DNASTORE_ARCHIVE_OUT"
	envOwner       = "DNASTORE_ARCHIVE_OWNER"
	envKillAfter   = "DNASTORE_ARCHIVE_KILL_AFTER"
	envStaleAfter  = "DNASTORE_ARCHIVE_STALE_MS"
	envSmokeGate   = "DNASTORE_ARCHIVE_SMOKE"
	workerExitLine = "worker-result"
)

func TestMain(m *testing.M) {
	if os.Getenv(envWorker) == "1" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

// workerMain is the subprocess entry point: a real archive worker over the
// fixed test pipeline, optionally rigged to SIGKILL itself mid-volume.
func workerMain() int {
	p, err := archiveTestPipeline()
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker pipeline:", err)
		return 1
	}
	o := WorkerOptions{
		Owner:   os.Getenv(envOwner),
		Backoff: 10 * time.Millisecond,
	}
	if ms, err := strconv.Atoi(os.Getenv(envStaleAfter)); err == nil && ms > 0 {
		o.StaleAfter = time.Duration(ms) * time.Millisecond
	}
	if n, err := strconv.Atoi(os.Getenv(envKillAfter)); err == nil && n > 0 {
		killer := &chaos.ProcessKiller{AfterN: n}
		o.Hooks.OutputWritten = func(uint32) { killer.Strike() }
	}
	res, err := RunWorker(context.Background(), p, os.Getenv(envDir), os.Getenv(envOut), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		return 1
	}
	fmt.Printf("%s decoded=%d salvaged=%d failed=%d skipped=%d takeovers=%d redone=%d\n",
		workerExitLine, res.Decoded, res.Salvaged, res.Failed, res.Skipped, res.Takeovers, res.Redone)
	return 0
}

// archiveTestPipeline is the fixed-seed pipeline every test — and the
// subprocess worker — constructs identically.
func archiveTestPipeline() (*core.Pipeline, error) {
	c, err := codec.NewCodec(codec.Params{N: 30, K: 20, PayloadBytes: 15, Seed: 7})
	if err != nil {
		return nil, err
	}
	return core.New(c,
		sim.Options{Channel: sim.CalibratedIID(0.02), Coverage: sim.FixedCoverage(8), Seed: 11},
		cluster.Options{Seed: 13},
		recon.DoubleSidedBMA{}), nil
}

func archiveTestData(n int) []byte {
	rng := xrand.New(0xd15c)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	return data
}

// buildTestArchive encodes a fresh archive and returns its directory, the
// input bytes, and the single-process RunStream reference output.
func buildTestArchive(t *testing.T, bytesTotal, volumeBytes int) (dir string, data, ref []byte) {
	t.Helper()
	data = archiveTestData(bytesTotal)
	opts := core.StreamOptions{VolumeBytes: volumeBytes}
	p, err := archiveTestPipeline()
	if err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(t.TempDir(), "archive")
	if _, err := Build(context.Background(), p, bytes.NewReader(data), dir, opts); err != nil {
		t.Fatal(err)
	}
	p2, err := archiveTestPipeline()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := p2.RunStream(context.Background(), bytes.NewReader(data), &out, opts); err != nil {
		t.Fatal(err)
	}
	ref = out.Bytes()
	return dir, data, ref
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkNoTempFiles fails the test if a lease-claim or atomic-write temp file,
// or a retired lease, survived in the archive's state directory.
func checkNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(Dir(dir).StatePath())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") || strings.HasSuffix(e.Name(), ".stale") {
			t.Errorf("%s survived the worker run", e.Name())
		}
	}
}

func TestBuildAndWorkerMatchesRunStream(t *testing.T) {
	dir, data, ref := buildTestArchive(t, 2750, 600) // 5 volumes, last short
	if !bytes.Equal(ref, data) {
		t.Fatal("fixture not clean: RunStream reference differs from input")
	}
	outPath := filepath.Join(filepath.Dir(dir), "out.bin")
	p, err := archiveTestPipeline()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorker(context.Background(), p, dir, outPath, WorkerOptions{Owner: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded != 5 || res.Committed() != 5 || res.Skipped != 0 {
		t.Fatalf("worker result %+v, want 5 decoded", res)
	}
	if got := readFileT(t, outPath); !bytes.Equal(got, ref) {
		t.Fatal("worker output differs from single-process RunStream output")
	}
	rep, err := Audit(dir, outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || !rep.Clean() || rep.Decoded != 5 {
		t.Fatalf("audit: %+v", rep)
	}
	// A second worker over the finished archive does nothing but verify.
	p2, err := archiveTestPipeline()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunWorker(context.Background(), p2, dir, outPath, WorkerOptions{Owner: "late"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Committed() != 0 || res2.Skipped != 5 {
		t.Fatalf("late worker result %+v, want 5 skipped", res2)
	}
	checkNoTempFiles(t, dir)
}

func TestWorkerConcurrentInProcess(t *testing.T) {
	dir, _, ref := buildTestArchive(t, 2750, 600)
	outPath := filepath.Join(filepath.Dir(dir), "out.bin")
	const workers = 3
	results := make([]WorkerResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		p, err := archiveTestPipeline()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, p *core.Pipeline) {
			defer wg.Done()
			results[i], errs[i] = RunWorker(context.Background(), p, dir, outPath, WorkerOptions{
				Owner:   fmt.Sprintf("w%d", i),
				Backoff: 5 * time.Millisecond,
			})
		}(i, p)
	}
	wg.Wait()
	committed := 0
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		committed += results[i].Committed()
	}
	// Leases keep live workers off each other's volumes, so the fleet
	// commits each volume exactly once.
	if committed != 5 {
		t.Fatalf("fleet committed %d volumes, want 5 (results %+v)", committed, results)
	}
	if got := readFileT(t, outPath); !bytes.Equal(got, ref) {
		t.Fatal("concurrent fleet output differs from RunStream output")
	}
	rep, err := Audit(dir, outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Decoded != 5 {
		t.Fatalf("audit: %+v", rep)
	}
	checkNoTempFiles(t, dir)
}

// spawnWorker re-execs the test binary as a worker subprocess.
func spawnWorker(t *testing.T, dir, outPath, owner string, extraEnv ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		envWorker+"=1",
		envDir+"="+dir,
		envOut+"="+outPath,
		envOwner+"="+owner,
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	return cmd
}

func TestWorkerCrashTakeoverConvergence(t *testing.T) {
	// The tentpole guarantee, end to end with real processes: a worker is
	// SIGKILLed mid-volume (after output bytes, before its checkpoint), a
	// replacement takes over its stale lease, and the final output is
	// byte-identical to a single-process RunStream.
	dir, _, ref := buildTestArchive(t, 2750, 600)
	outPath := filepath.Join(filepath.Dir(dir), "out.bin")

	doomed := spawnWorker(t, dir, outPath, "doomed", envKillAfter+"=2")
	var doomedOut bytes.Buffer
	doomed.Stdout, doomed.Stderr = &doomedOut, &doomedOut
	err := doomed.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("doomed worker: err=%v output=%s — expected it to die", err, doomedOut.String())
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("doomed worker exited %v, want death by SIGKILL", ee)
	}
	// It died holding a lease: volume 0 committed, volume 1 mid-flight.
	if _, err := os.Stat(Dir(dir).LeasePath(1)); err != nil {
		t.Fatalf("dead worker's lease on volume 1 not found: %v", err)
	}
	if _, err := ReadCheckpoint(Dir(dir).CheckpointPath(0)); err != nil {
		t.Fatalf("volume 0 should have committed before the crash: %v", err)
	}
	if _, err := ReadCheckpoint(Dir(dir).CheckpointPath(1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("volume 1 must not have a checkpoint (killed before commit): %v", err)
	}

	// A replacement with a short staleness window takes over and finishes.
	rescue := spawnWorker(t, dir, outPath, "rescue", envStaleAfter+"=300")
	var rescueOut bytes.Buffer
	rescue.Stdout, rescue.Stderr = &rescueOut, &rescueOut
	if err := rescue.Run(); err != nil {
		t.Fatalf("rescue worker: %v\n%s", err, rescueOut.String())
	}
	if !strings.Contains(rescueOut.String(), "takeovers=1") {
		t.Fatalf("rescue worker did not report a stale-lease takeover:\n%s", rescueOut.String())
	}
	if _, err := os.Stat(Dir(dir).LeasePath(1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale lease not retired: %v", err)
	}

	if got := readFileT(t, outPath); !bytes.Equal(got, ref) {
		t.Fatal("crash-resumed output differs from single-process RunStream output")
	}
	rep, err := Audit(dir, outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || !rep.Clean() || rep.Decoded != 5 {
		t.Fatalf("audit after crash resume: %+v", rep)
	}
}

func TestWorkerTornCheckpointRedo(t *testing.T) {
	// A checkpoint that hits disk half-written must be detected by the next
	// sweep and the volume redone — never trusted, never corrupting output.
	dir, _, ref := buildTestArchive(t, 2750, 600)
	outPath := filepath.Join(filepath.Dir(dir), "out.bin")
	p, err := archiveTestPipeline()
	if err != nil {
		t.Fatal(err)
	}
	torn := &chaos.TornCheckpoints{Seed: 99, FirstN: 1}
	res, err := RunWorker(context.Background(), p, dir, outPath, WorkerOptions{
		Owner: "torn",
		Hooks: Hooks{WriteCheckpoint: torn.WrapWrite(func(path string, data []byte) error {
			return AtomicWriteFile(path, data, ".torn")
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() != 5 {
		t.Fatalf("first worker committed %d, want 5 (one commit is torn on disk)", res.Committed())
	}
	rep, err := Audit(dir, outPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() || rep.Missing != 1 {
		t.Fatalf("audit must flag the torn checkpoint as missing: %+v", rep)
	}

	p2, err := archiveTestPipeline()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunWorker(context.Background(), p2, dir, outPath, WorkerOptions{Owner: "redo"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Redone != 1 || res2.Committed() != 1 || res2.Skipped != 4 {
		t.Fatalf("redo worker result %+v, want exactly the torn volume redone", res2)
	}
	if got := readFileT(t, outPath); !bytes.Equal(got, ref) {
		t.Fatal("output after torn-checkpoint redo differs from RunStream output")
	}
	rep2, err := Audit(dir, outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Ok() || rep2.Decoded != 5 {
		t.Fatalf("audit after redo: %+v", rep2)
	}
}

func TestCheckpointTruncationEveryByte(t *testing.T) {
	// Satellite: every byte-boundary truncation of a checkpoint must parse
	// as ErrCheckpointCorrupt — only the complete record is valid.
	cp := &Checkpoint{
		ID: 3, Outcome: "salvaged", Attempts: 2, Bytes: 600,
		DamageBytes: 300, DamagedUnits: []int{0, 1}, OutputCRC: 0xdeadbeef, Owner: "w0",
	}
	raw, err := MarshalCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(raw); n++ {
		if _, err := UnmarshalCheckpoint(raw[:n]); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("truncated at %d/%d: got %v, want ErrCheckpointCorrupt", n, len(raw), err)
		}
	}
	got, err := UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != cp.ID || got.Outcome != cp.Outcome || got.OutputCRC != cp.OutputCRC ||
		len(got.DamagedUnits) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestWorkerRecoversFromTruncatedCheckpointFiles(t *testing.T) {
	// Same property at the worker level: plant truncated checkpoint files at
	// several byte boundaries and assert the worker redoes the volume and
	// still converges to the reference bytes.
	dir, _, ref := buildTestArchive(t, 1100, 600) // 2 volumes
	outPath := filepath.Join(filepath.Dir(dir), "out.bin")
	p, err := archiveTestPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorker(context.Background(), p, dir, outPath, WorkerOptions{Owner: "seed"}); err != nil {
		t.Fatal(err)
	}
	whole := readFileT(t, Dir(dir).CheckpointPath(0))
	for _, cut := range []int{0, 4, 5, 9, len(whole) / 2, len(whole) - 1} {
		if err := os.WriteFile(Dir(dir).CheckpointPath(0), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		p2, err := archiveTestPipeline()
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWorker(context.Background(), p2, dir, outPath, WorkerOptions{Owner: "heal"})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if res.Redone != 1 || res.Committed() != 1 {
			t.Fatalf("cut at %d: result %+v, want the volume redone", cut, res)
		}
		if got := readFileT(t, outPath); !bytes.Equal(got, ref) {
			t.Fatalf("cut at %d: output corrupted", cut)
		}
	}
}

func TestWorkerDamagedShardDegrades(t *testing.T) {
	// A torn/corrupt shard region must degrade that one volume (failed
	// checkpoint, zero-filled region) and leave the rest intact — the
	// archive-level face of the DVOL truncation hardening.
	dir, _, ref := buildTestArchive(t, 2750, 600)
	outPath := filepath.Join(filepath.Dir(dir), "out.bin")
	m, err := codec.ReadManifest(Dir(dir).ManifestPath())
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the shard file inside volume 4's frame (the last one).
	last := m.Volumes[len(m.Volumes)-1]
	if err := os.Truncate(Dir(dir).ShardsPath(), last.ShardOffset+codec.VolumeHeaderBytes+10); err != nil {
		t.Fatal(err)
	}
	p, err := archiveTestPipeline()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorker(context.Background(), p, dir, outPath, WorkerOptions{
		Owner:  "besteffort",
		Stream: core.StreamOptions{RunOptions: core.RunOptions{BestEffort: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Decoded != 4 {
		t.Fatalf("result %+v, want 4 decoded + 1 failed", res)
	}
	got := readFileT(t, outPath)
	if !bytes.Equal(got[:last.Offset], ref[:last.Offset]) {
		t.Fatal("undamaged volumes corrupted")
	}
	if !bytes.Equal(got[last.Offset:], make([]byte, last.Length)) {
		t.Fatal("damaged volume's region not zero-filled")
	}
	rep, err := Audit(dir, outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Failed != 1 || rep.Decoded != 4 {
		t.Fatalf("audit: %+v (a failed volume honestly committed still audits Ok)", rep)
	}
	if rep.Clean() {
		t.Fatal("audit with a failed volume must not report Clean")
	}
	deg := rep.Degraded()
	if len(deg) != 1 || deg[0].ID != last.ID || deg[0].DamageBytes != int(last.Length) {
		t.Fatalf("Degraded() = %+v", deg)
	}
}

func TestLeaseProtocol(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol-00000000.lease")
	claimed, takeover, err := ClaimLease(path, "a", time.Minute)
	if err != nil || !claimed || takeover {
		t.Fatalf("first claim: %v/%v/%v", claimed, takeover, err)
	}
	// A fresh lease repels contenders.
	claimed, _, err = ClaimLease(path, "b", time.Minute)
	if err != nil || claimed {
		t.Fatalf("contended claim succeeded: %v/%v", claimed, err)
	}
	// Renewal refreshes the timestamp; release frees the volume.
	if err := RenewLease(path, "a"); err != nil {
		t.Fatal(err)
	}
	if err := ReleaseLease(path); err != nil {
		t.Fatal(err)
	}
	if err := ReleaseLease(path); err != nil {
		t.Fatalf("double release must be idempotent: %v", err)
	}
	// A stale lease (old timestamp) is taken over.
	claimed, _, err = ClaimLease(path, "a", 30*time.Millisecond)
	if err != nil || !claimed {
		t.Fatalf("reclaim: %v/%v", claimed, err)
	}
	time.Sleep(60 * time.Millisecond)
	claimed, takeover, err = ClaimLease(path, "b", 30*time.Millisecond)
	if err != nil || !claimed || !takeover {
		t.Fatalf("stale takeover: claimed=%v takeover=%v err=%v", claimed, takeover, err)
	}
	// A torn lease body (unparseable) counts as stale, not as live forever.
	if err := os.WriteFile(path, []byte(`{"owner":"b","ren`), 0o644); err != nil {
		t.Fatal(err)
	}
	claimed, takeover, err = ClaimLease(path, "c", time.Hour)
	if err != nil || !claimed || !takeover {
		t.Fatalf("torn-lease takeover: claimed=%v takeover=%v err=%v", claimed, takeover, err)
	}
}

func TestLeaseClaimRace(t *testing.T) {
	// Many goroutines contend for one lease; exactly one claim may win.
	dir := t.TempDir()
	path := filepath.Join(dir, "vol-00000007.lease")
	const contenders = 16
	wins := make([]bool, contenders)
	var wg sync.WaitGroup
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			claimed, _, err := ClaimLease(path, fmt.Sprintf("c%d", i), time.Minute)
			if err != nil {
				t.Errorf("contender %d: %v", i, err)
			}
			wins[i] = claimed
		}(i)
	}
	wg.Wait()
	won := 0
	for _, w := range wins {
		if w {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d contenders won the claim, want exactly 1", won)
	}
}

func TestReadShardSerializationRoundTrip(t *testing.T) {
	rng := xrand.New(5)
	reads := make([]dna.Seq, 40)
	for i := range reads {
		reads[i] = make(dna.Seq, rng.Intn(60))
		for j := range reads[i] {
			reads[i][j] = dna.Base(rng.Intn(4))
		}
	}
	raw := marshalReads(reads)
	got, err := unmarshalReads(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reads) {
		t.Fatalf("%d reads, want %d", len(got), len(reads))
	}
	for i := range reads {
		if !bytes.Equal([]byte(gotBytes(got[i])), []byte(gotBytes(reads[i]))) {
			t.Fatalf("read %d mismatch", i)
		}
	}
	// Truncation and trailing garbage are both rejected.
	if _, err := unmarshalReads(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated shard accepted")
	}
	if _, err := unmarshalReads(append(append([]byte{}, raw...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func gotBytes(s dna.Seq) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = byte(b)
	}
	return out
}

// TestArchiveCrashResumeSmoke is the CI crash-resume smoke job: a larger
// archive, two concurrent worker processes, one killed mid-run and
// restarted, and the result diffed against a single-process RunStream.
// Gated behind DNASTORE_ARCHIVE_SMOKE=1 because it decodes tens of volumes.
func TestArchiveCrashResumeSmoke(t *testing.T) {
	if os.Getenv(envSmokeGate) == "" {
		t.Skip("set DNASTORE_ARCHIVE_SMOKE=1 to run the crash-resume smoke test")
	}
	dir, _, ref := buildTestArchive(t, 24*1024, 1024) // 24 volumes
	outPath := filepath.Join(filepath.Dir(dir), "out.bin")

	doomed := spawnWorker(t, dir, outPath, "doomed", envKillAfter+"=5", envStaleAfter+"=500")
	survivor := spawnWorker(t, dir, outPath, "survivor", envStaleAfter+"=500")
	var survivorOut bytes.Buffer
	survivor.Stdout, survivor.Stderr = &survivorOut, &survivorOut
	if err := doomed.Start(); err != nil {
		t.Fatal(err)
	}
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}
	err := doomed.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("doomed worker did not die: %v", err)
	}
	// Restart the dead worker; the fleet (restart + survivor) must converge.
	restarted := spawnWorker(t, dir, outPath, "restarted", envStaleAfter+"=500")
	var restartedOut bytes.Buffer
	restarted.Stdout, restarted.Stderr = &restartedOut, &restartedOut
	if err := restarted.Run(); err != nil {
		t.Fatalf("restarted worker: %v\n%s", err, restartedOut.String())
	}
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor worker: %v\n%s", err, survivorOut.String())
	}

	if got := readFileT(t, outPath); !bytes.Equal(got, ref) {
		t.Fatal("fleet output differs from single-process RunStream output")
	}
	rep, err := Audit(dir, outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || !rep.Clean() || rep.Decoded != 24 {
		t.Fatalf("audit: %+v", rep)
	}
}

// TestAtomicWriteFile checks the durable write Build stores the manifest
// with, at the empty temp suffix Build uses and at a worker-style one: no
// temp file survives a successful write, and an overwrite (here a shorter
// one) lands whole.
func TestAtomicWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "MANIFEST.dvma")
	for _, suffix := range []string{"", ".7"} {
		for _, data := range [][]byte{[]byte("first write, the longer one"), []byte("overwrite")} {
			if err := AtomicWriteFile(path, data, suffix); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path + ".tmp" + suffix); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("suffix %q: temp file left behind: %v", suffix, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("suffix %q: read back %q, want %q", suffix, got, data)
			}
		}
	}
}
