// Command gospawnmain exercises the gospawn analyzer in a main package, one
// of the homes where a go statement may appear: each must start a function
// literal that the spawn site joins.
package main

import (
	"context"
	"sync"

	"dnastore/internal/exec"
)

func main() {}

func work() {}

func unjoined() {
	go func() { // want "goroutine is not joined"
		work()
	}()
}

// contextOnly can be stopped but not waited for: a context is no join.
func contextOnly(ctx context.Context) {
	go func() { // want "goroutine is not joined"
		for ctx.Err() == nil {
			work()
		}
	}()
}

// privateChannel sends on a channel the spawn site cannot see.
func privateChannel() {
	go func() { // want "goroutine is not joined"
		ch := make(chan int, 1)
		ch <- 1
	}()
}

func pump(ch chan int) { close(ch) }

// namedSpawn carries a channel in its arguments; a named spawn is a finding
// even in a home.
func namedSpawn() {
	ch := make(chan int)
	go pump(ch) // want "starts a named function"
	<-ch
}

func joinedByWaitGroup() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

func joinedByDoneChannel() {
	done := make(chan struct{})
	go func() {
		defer func() {
			close(done)
		}()
		work()
	}()
	<-done
}

func joinedByResultSend() {
	res := make(chan int, 1)
	go func() {
		work()
		res <- 1
	}()
	<-res
}

// joinedByGroup runs once every member of g has exited, the closer idiom of
// a channel pipeline.
func joinedByGroup(g *exec.Group) {
	go func() {
		g.Wait()
		work()
	}()
}

// joinedByTickets returns its ticket; the spawn site's next Acquire
// observes the completion.
func joinedByTickets(ctx context.Context) {
	tickets := exec.NewTickets(1)
	if !tickets.Acquire(ctx) {
		return
	}
	go func() {
		defer tickets.Release()
		work()
	}()
	tickets.Acquire(ctx)
}
