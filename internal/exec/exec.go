// Package exec is the shared execution layer for every parallel stage in
// the pipeline: an indexed parallel-for with worker IDs, ticket semaphores
// for bounded channel pipelines, and a spawn-join group with panic capture.
// It is the one library package that starts goroutines (dnalint gospawn),
// so all concurrency in sim, cluster, recon, core, and archive runs through
// it, and the determinism guarantee — output depends only on (options,
// seed, volume id, bytes), never on scheduling — is enforced in one place.
//
// Ownership rules (checked by dnalint scratchown):
//
//   - Scratch is owned per worker: allocate a make([]T, workers) slice and
//     index it with the worker argument of ParallelForW / Group.GoN. For
//     one worker ID, fn(w, ·) calls never overlap, so slot w is
//     effectively goroutine-local without locks.
//   - Scratch never crosses a channel and never escapes to package level;
//     goroutines may capture a slice of slots (each indexes its own), but
//     never a single scratch variable declared outside.
package exec

import (
	"context"
	"sync"
	"sync/atomic"
)

// runGuarded contains a panic inside one parallel-for item: the item's
// outputs stay at their pre-set "no evidence" values, so one poisoned item
// degrades the stage instead of crashing it. Package-level (not a closure)
// so the serial dispatch path allocates nothing per call.
//
//dnalint:hotpath -- per-item dispatch of every parallel stage
func runGuarded(fn func(worker, i int), w, i int) {
	defer func() { _ = recover() }()
	fn(w, i)
}

// ParallelFor runs fn(i) for i in [0,n) across the given number of
// workers. Workers stop early once ctx is cancelled (already-started items
// finish; the caller re-checks ctx after the call). A panic inside one item
// is contained to that item: its outputs stay at their zero values, which
// every caller treats as "no evidence", so one poisoned item degrades the
// stage instead of crashing it.
func ParallelFor(ctx context.Context, workers, n int, fn func(i int)) {
	ParallelForW(ctx, workers, n, func(_, i int) { fn(i) })
}

// ParallelForW is ParallelFor with the worker index exposed to fn. The
// index is always in [0, workers) for the workers value passed in (the
// internal clamp only shrinks the range), which is what lets callers hand
// each worker its own scratch slot: fn(w, ·) calls for one w never overlap,
// so scratch[w] is effectively goroutine-local. Cancellation and panic
// containment are identical to ParallelFor.
//
//dnalint:hotpath -- the serial (workers <= 1) branch must stay allocation-free
func ParallelForW(ctx context.Context, workers, n int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			runGuarded(fn, 0, i)
		}
		return
	}
	parallelForWSpawn(ctx, workers, n, fn)
}

// parallelForWSpawn is ParallelForW's multi-goroutine branch. It is a
// separate function because its stop flag and wait group escape into the
// worker closures and would otherwise be heap-allocated in the caller's
// prologue, costing the serial (workers == 1) dispatch two allocations per
// call — the difference between an allocation-free round and not.
func parallelForWSpawn(ctx context.Context, workers, n int, fn func(worker, i int)) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Worker-level backstop: runGuarded already contains per-item
			// panics, but the dispatch loop itself must not be able to kill
			// the process — the worker's remaining items stay at their zero
			// values, which callers treat as "no evidence".
			defer func() { _ = recover() }()
			for i := w; i < n; i += workers {
				if stop.Load() {
					return
				}
				if ctx.Err() != nil {
					stop.Store(true)
					return
				}
				runGuarded(fn, w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Tickets is a counting semaphore bounding how many items are in flight
// through a channel pipeline. Acquire blocks until a ticket or
// cancellation; Release never blocks (returning a ticket into a full
// semaphore is dropped, which keeps failure paths that release twice
// harmless).
type Tickets struct {
	ch chan struct{}
}

// NewTickets creates a semaphore with n tickets available.
func NewTickets(n int) *Tickets {
	if n < 1 {
		n = 1
	}
	t := &Tickets{ch: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		t.ch <- struct{}{}
	}
	return t
}

// Acquire takes a ticket, blocking until one is free. It returns false if
// ctx is cancelled first.
func (t *Tickets) Acquire(ctx context.Context) bool {
	select {
	case <-t.ch:
		return true
	case <-ctx.Done():
		return false
	}
}

// Release returns a ticket without ever blocking: on shutdown paths where
// more releases than acquires can race, the surplus is dropped.
func (t *Tickets) Release() {
	select {
	case t.ch <- struct{}{}:
	default:
	}
}

// Group runs a set of goroutines with panic capture and a join point. It
// replaces the hand-rolled WaitGroup-plus-recover pumps in the streaming
// runtime and archive worker.
type Group struct {
	wg      sync.WaitGroup
	onPanic func(v any)
}

// NewGroup creates a group. onPanic, if non-nil, is invoked with the
// recovered value whenever a goroutine spawned by the group panics; the
// goroutine then exits normally (the panic does not propagate). Pass nil to
// swallow panics.
func NewGroup(onPanic func(v any)) *Group {
	return &Group{onPanic: onPanic}
}

// recoverPanic is deferred directly inside every spawned goroutine so that
// recover() observes the in-flight panic.
func (g *Group) recoverPanic() {
	if r := recover(); r != nil && g.onPanic != nil {
		g.onPanic(r)
	}
}

// Go spawns fn as a member of the group.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer g.recoverPanic()
		fn()
	}()
}

// GoN spawns n members, passing each its worker ID in [0, n).
func (g *Group) GoN(n int, fn func(worker int)) {
	for w := 0; w < n; w++ {
		g.wg.Add(1)
		go func(w int) {
			defer g.wg.Done()
			defer g.recoverPanic()
			fn(w)
		}(w)
	}
}

// Wait blocks until every spawned member has exited.
func (g *Group) Wait() { g.wg.Wait() }

// OnExit runs fn on its own goroutine once every member spawned so far has
// exited — the closer idiom for pipeline channels (Wait then close). Call
// it after all Go/GoN calls for the stage; members spawned later are not
// covered. fn runs under the same panic capture as group members.
func (g *Group) OnExit(fn func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil && g.onPanic != nil {
				g.onPanic(r)
			}
		}()
		g.wg.Wait()
		fn()
	}()
}
