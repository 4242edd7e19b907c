package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is what one timed operation cost the process.
type sample struct {
	wall, cpu time.Duration
	peakHeap  uint64 // bytes
}

// measured runs fn as one timed operation: the heap is collected first so
// the peak belongs to fn, and CPU is process user+sys time over fn alone.
func measured(fn func()) sample {
	runtime.GC()
	heap := startHeapSampler(2 * time.Millisecond)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	s := sample{wall: time.Since(t0), cpu: cpuTime() - c0}
	s.peakHeap = heap.finish()
	return s
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Linux never fails RUSAGE_SELF; a zero reads as "no CPU used"
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapObjects is the runtime/metrics name for the bytes held by heap
// objects, live or not yet swept — the figure runtime.MemStats calls
// HeapAlloc.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler tracks the heap high-water mark from a background goroutine.
// It reads runtime/metrics, which does not stop the world, where
// runtime.ReadMemStats would pause the program on every sample.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	probe := []metrics.Sample{{Name: heapObjects}}
	h.peak = readHeap(probe)
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.peak = max(h.peak, readHeap(probe))
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak including
// one last reading.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return max(h.peak, readHeap([]metrics.Sample{{Name: heapObjects}}))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN or infinite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
