// Package gospawn exercises the gospawn analyzer in a library package, where
// no go statement may appear: the work belongs on internal/exec, which
// contains a panic inside its work item and joins every goroutine it starts.
package gospawn

import (
	"sync"

	"dnastore/internal/exec"
)

func work() {}

// joinedAndGuarded is joined and defers its own recover, which no longer
// makes a spawn legal outside internal/exec.
func joinedAndGuarded(items []int) {
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() { // want "go statement outside internal/exec"
			defer wg.Done()
			defer func() { _ = recover() }()
			work()
		}()
	}
	wg.Wait()
}

func finish(done chan struct{}) { close(done) }

// namedSpawn carries a channel in its arguments; a named spawn is a finding
// everywhere.
func namedSpawn() {
	done := make(chan struct{})
	go finish(done) // want "go statement outside internal/exec"
	<-done
}

// onGroup is the sanctioned route: the executor starts, guards and joins
// the goroutine.
func onGroup() {
	g := exec.NewGroup(nil)
	g.Go(work)
	g.Wait()
}
