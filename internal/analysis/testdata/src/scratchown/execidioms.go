// Executor idioms: the analyzer sees scratch through struct fields and
// through generic type arguments (bank[S]), so bundling scratch in a
// worker-state struct or a slot bank does not launder it past the ownership
// rules — while the sanctioned bank-indexed-by-worker-ID pattern stays
// legal, including when the bank is captured by a spawned closure.
package scratchown

import (
	"context"

	"dnastore/internal/exec"
)

// workerState bundles per-worker bookkeeping with its scratch: the struct
// involves scratch through the field.
type workerState struct {
	id      int
	scratch rowScratch
}

// bank is a generic per-worker slot bank: one value per worker ID.
type bank[T any] struct {
	slots []T
}

func newBank[T any](workers int) *bank[T] { return &bank[T]{slots: make([]T, workers)} }

func (b *bank[T]) get(w int) *T { return &b.slots[w] }

var globalState workerState // want "package-level var globalState holds per-worker scratch type"

var globalBank = newBank[rowScratch](4) // want "package-level var globalBank holds per-worker scratch type"

func sendStateOverChannel(ch chan workerState, st workerState) {
	ch <- st // want "sent over a channel"
}

func makeBankChannel() {
	_ = make(chan *bank[rowScratch]) // want "channel of per-worker scratch type"
}

// slotBankPerWorker is the sanctioned executor pattern: one bank, each
// worker indexes its own slot by the worker ID ParallelForW hands it.
func slotBankPerWorker(ctx context.Context, workers, n int) {
	b := newBank[rowScratch](workers)
	exec.ParallelForW(ctx, workers, n, func(w, i int) {
		s := b.get(w)
		s.rows = s.rows[:0]
	})
}

// bankCapturedByGoroutine stays legal: capturing the bank is the slot
// pattern — only capturing a single scratch variable is flagged.
func bankCapturedByGoroutine(done chan struct{}) {
	b := newBank[rowScratch](2)
	go func() {
		b.get(0).rows = nil
		close(done)
	}()
	<-done
}
