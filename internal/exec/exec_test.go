package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// workerCounts returns the worker counts the issue pins: 1, 4, and
// GOMAXPROCS (deduplicated).
func workerCounts() []int {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	out := counts[:0]
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func TestParallelForWCoversAllItems(t *testing.T) {
	const n = 1000
	for _, workers := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var hits [n]atomic.Int32
			ParallelForW(context.Background(), workers, n, func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("worker id %d out of range [0,%d)", w, workers)
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("item %d ran %d times, want 1", i, got)
				}
			}
		})
	}
}

func TestParallelForWorkerOwnsSlot(t *testing.T) {
	// Two calls with the same worker ID must never overlap: each worker
	// bumps its own slot only, so slot sums must equal per-worker item
	// counts without any synchronization beyond the per-worker slice.
	const n = 4096
	for _, workers := range workerCounts() {
		slots := make([]int, workers)
		ParallelForW(context.Background(), workers, n, func(w, _ int) {
			slots[w]++
		})
		total := 0
		for _, c := range slots {
			total += c
		}
		if total != n {
			t.Fatalf("workers=%d: slot sum %d, want %d", workers, total, n)
		}
	}
}

func TestParallelForPanicIsolation(t *testing.T) {
	// A panicking item leaves its own output at the zero value and every
	// other item completes.
	const n = 500
	for _, workers := range workerCounts() {
		out := make([]int, n)
		ParallelForW(context.Background(), workers, n, func(_, i int) {
			if i%13 == 0 {
				panic("poisoned item")
			}
			out[i] = i + 1
		})
		for i := range out {
			want := i + 1
			if i%13 == 0 {
				want = 0
			}
			if out[i] != want {
				t.Fatalf("workers=%d item %d = %d, want %d", workers, i, out[i], want)
			}
		}
	}
}

func TestParallelForMidStageCancellation(t *testing.T) {
	// Cancel once a quarter of the items have run: the loop must stop well
	// short of completion, and already-started items finish.
	const n = 10000
	for _, workers := range workerCounts() {
		ctx, cancel := context.WithCancel(context.Background())
		var ran, atCancel atomic.Int64
		ParallelForW(ctx, workers, n, func(_, _ int) {
			if ran.Add(1) == n/4 {
				cancel()
				atCancel.Store(ran.Load())
			}
		})
		cancel()
		got := ran.Load()
		if got < n/4 {
			t.Fatalf("workers=%d: ran %d items, want at least %d", workers, got, n/4)
		}
		// Other workers keep starting items until cancel() returns, so the
		// bound counts from then: workers poll ctx per item, so each of the
		// other workers-1 can land at most the one item it had already
		// started.
		if max := atCancel.Load() + int64(workers-1); got > max {
			t.Fatalf("workers=%d: ran %d items, %d when cancel returned, want <= %d", workers, got, atCancel.Load(), max)
		}
	}
}

func TestParallelForPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range workerCounts() {
		var ran atomic.Int64
		ParallelForW(ctx, workers, 100, func(_, _ int) { ran.Add(1) })
		// The serial path checks ctx before every item; the spawn path may
		// let each worker observe cancellation on its first poll.
		if got := ran.Load(); got != 0 {
			t.Fatalf("workers=%d: ran %d items with pre-cancelled ctx", workers, got)
		}
	}
}

func TestParallelForSerialDispatchZeroAlloc(t *testing.T) {
	// The serial (workers <= 1) path must not allocate: cluster's
	// round-runner zero-alloc guard sits on top of this dispatch.
	fn := func(_, _ int) {}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		ParallelForW(ctx, 1, 64, fn)
	})
	if allocs != 0 {
		t.Fatalf("serial ParallelForW allocates %.1f/op, want 0", allocs)
	}
}

func TestTicketsBoundInFlight(t *testing.T) {
	const cap = 3
	tk := NewTickets(cap)
	ctx := context.Background()
	var inFlight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !tk.Acquire(ctx) {
				t.Error("acquire failed with live ctx")
				return
			}
			cur := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if cur <= m || maxSeen.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
			tk.Release()
		}()
	}
	wg.Wait()
	if got := maxSeen.Load(); got > cap {
		t.Fatalf("saw %d in flight, cap %d", got, cap)
	}
}

func TestTicketsAcquireHonoursCancel(t *testing.T) {
	tk := NewTickets(1)
	if !tk.Acquire(context.Background()) {
		t.Fatal("first acquire failed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool)
	go func() { done <- tk.Acquire(ctx) }()
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("acquire succeeded after cancel with no ticket free")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire did not unblock on cancel")
	}
	// Double-release must not block or grow capacity.
	tk.Release()
	tk.Release()
	tk.Release()
	if !tk.Acquire(context.Background()) {
		t.Fatal("acquire after release failed")
	}
}

func TestGroupJoinAndPanicCapture(t *testing.T) {
	var panics []any
	var mu sync.Mutex
	g := NewGroup(func(v any) {
		mu.Lock()
		panics = append(panics, v)
		mu.Unlock()
	})
	var ran atomic.Int64
	g.Go(func() { ran.Add(1) })
	g.Go(func() { panic(errors.New("boom")) })
	g.GoN(4, func(w int) {
		ran.Add(1)
		if w == 2 {
			panic("worker 2 down")
		}
	})
	g.Wait()
	if got := ran.Load(); got != 5 {
		t.Fatalf("ran %d members, want 5", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(panics) != 2 {
		t.Fatalf("captured %d panics, want 2: %v", len(panics), panics)
	}
}

func TestGroupOnExitRunsAfterMembers(t *testing.T) {
	g := NewGroup(nil)
	var members atomic.Int64
	release := make(chan struct{})
	for i := 0; i < 3; i++ {
		g.Go(func() {
			<-release
			members.Add(1)
		})
	}
	closed := make(chan int64, 1)
	g.OnExit(func() { closed <- members.Load() })
	close(release)
	select {
	case seen := <-closed:
		if seen != 3 {
			t.Fatalf("closer observed %d members done, want 3", seen)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("closer never ran")
	}
}

func TestGroupNilPanicHookSwallows(t *testing.T) {
	g := NewGroup(nil)
	g.Go(func() { panic("silent") })
	g.Wait() // must not crash the test binary
}
