package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dnastore/internal/archive"
)

// payload is one workload's archive content: a position-addressable
// pseudo-random byte stream. The input is produced and the output checked
// from the seed alone, so neither is ever held in memory — at 16 MiB each
// they would be a third of the streaming runtime's peak heap.
type payload struct {
	seed uint64
	size int64
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// derive gives each consumer of a workload seed its own stream.
func derive(seed, tag uint64) uint64 { return mix(seed ^ mix(tag+0x9e3779b97f4a7c15)) }

// word returns the payload's i'th little-endian 8-byte word.
func (p payload) word(i int64) uint64 { return mix(p.seed + uint64(i)*0x9e3779b97f4a7c15) }

// at returns the payload byte at offset off.
func (p payload) at(off int64) byte { return byte(p.word(off>>3) >> (8 * (off & 7))) }

// fill writes the payload bytes starting at offset off into b.
func (p payload) fill(off int64, b []byte) {
	for len(b) > 0 {
		if off&7 == 0 && len(b) >= 8 {
			binary.LittleEndian.PutUint64(b, p.word(off>>3))
			b, off = b[8:], off+8
			continue
		}
		b[0] = p.at(off)
		b, off = b[1:], off+1
	}
}

// mismatches counts the bytes of b that differ from the payload at off.
func (p payload) mismatches(off int64, b []byte) int {
	n := 0
	for len(b) > 0 {
		if off&7 == 0 && len(b) >= 8 {
			if binary.LittleEndian.Uint64(b) != p.word(off>>3) {
				for i := int64(0); i < 8; i++ {
					if b[i] != p.at(off+i) {
						n++
					}
				}
			}
			b, off = b[8:], off+8
			continue
		}
		if b[0] != p.at(off) {
			n++
		}
		b, off = b[1:], off+1
	}
	return n
}

// bytes materializes the payload, for the batch workload whose entry point
// takes a byte slice.
func (p payload) bytes() []byte {
	b := make([]byte, p.size)
	p.fill(0, b)
	return b
}

// reader streams the payload.
func (p payload) reader() io.Reader { return &payloadReader{p: p} }

type payloadReader struct {
	p   payload
	off int64
}

func (r *payloadReader) Read(b []byte) (int, error) {
	rem := r.p.size - r.off
	if rem <= 0 {
		return 0, io.EOF
	}
	if int64(len(b)) > rem {
		b = b[:rem]
	}
	r.p.fill(r.off, b)
	r.off += int64(len(b))
	return len(b), nil
}

// checker is the io.Writer end of a round trip: it compares every byte it
// receives with the payload and tallies wrong bytes per volume, without
// keeping the output.
type checker struct {
	p        payload
	volBytes int64
	off      int64
	bad      map[int64]int // volume → wrong or surplus bytes
}

func newChecker(p payload, volBytes int) *checker {
	return &checker{p: p, volBytes: int64(volBytes), bad: map[int64]int{}}
}

func (c *checker) Write(b []byte) (int, error) {
	last := volumes(c.p.size, c.volBytes) - 1
	for done := 0; done < len(b); {
		vol := c.off / c.volBytes
		n := min(int64(len(b)-done), (vol+1)*c.volBytes-c.off)
		seg := b[done : done+int(n)]
		valid := max(0, min(int64(len(seg)), c.p.size-c.off))
		c.bad[min(vol, last)] += c.p.mismatches(c.off, seg[:valid]) + len(seg) - int(valid)
		c.off += n
		done += int(n)
	}
	return len(b), nil
}

// failedSet lists the volumes that came back wrong, short or missing;
// output past the end of the payload fails the last volume.
func (c *checker) failedSet() map[int64]bool {
	out := map[int64]bool{}
	for v := int64(0); v < volumes(c.p.size, c.volBytes); v++ {
		if c.bad[v] > 0 || c.off < min((v+1)*c.volBytes, c.p.size) {
			out[v] = true
		}
	}
	return out
}

// volumes is the number of volumes a payload of size bytes splits into.
func volumes(size, volBytes int64) int64 { return max(1, (size+volBytes-1)/volBytes) }

// meteredReader is the io.Reader handed to the program. It neither copies
// nor buffers: it times each Read of the wrapped stream, notes when the
// first byte of every volume was requested, and sums the gaps between
// calls — the time the program's reader sat blocked on its in-flight bound
// and group hand-off (the intake wait).
type meteredReader struct {
	r        io.Reader
	volBytes int64
	tr       *tracer // nil when untraced

	off     int64
	starts  []time.Time // per volume, in order
	lastEnd time.Time
	wait    time.Duration
}

func (m *meteredReader) Read(b []byte) (int, error) {
	t0 := time.Now()
	if !m.lastEnd.IsZero() {
		m.wait += t0.Sub(m.lastEnd)
	}
	n, err := m.r.Read(b)
	for v := (m.off + m.volBytes - 1) / m.volBytes; v*m.volBytes < m.off+int64(n); v++ {
		m.starts = append(m.starts, t0)
	}
	m.off += int64(n)
	m.lastEnd = time.Now()
	m.tr.leaf("read", t0, m.lastEnd, -1)
	return n, err
}

// meteredWriter is the io.Writer handed to the program. It neither copies
// nor buffers: it notes when the last byte of every volume arrived and
// passes the bytes straight to the wrapped writer.
type meteredWriter struct {
	w        io.Writer
	volBytes int64
	size     int64
	tr       *tracer // nil when untraced

	off  int64
	ends []time.Time // per volume, in order
}

func (m *meteredWriter) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := m.w.Write(b)
	vols := volumes(m.size, m.volBytes)
	for v := int64(len(m.ends)); v < vols && min((v+1)*m.volBytes, m.size) <= m.off+int64(n); v++ {
		m.ends = append(m.ends, t0)
	}
	m.off += int64(n)
	m.tr.leaf("write", t0, time.Now(), -1)
	return n, err
}

// latencies pairs each volume's first-byte read with its arrival at the
// writer. Volumes that never arrived have no sample; the checker fails them.
func latencies(r *meteredReader, w *meteredWriter) []time.Duration {
	n := min(len(r.starts), len(w.ends))
	out := make([]time.Duration, n)
	for v := range out {
		out[v] = w.ends[v].Sub(r.starts[v])
	}
	return out
}

// commitMeter times an archive restore's commits through the workers'
// WriteCheckpoint hooks: each volume's latency runs from its worker's
// previous commit (or the worker's start) to its own commit.
type commitMeter struct {
	mu      sync.Mutex
	latency []time.Duration
}

// hook returns one worker's WriteCheckpoint hook. It persists through
// archive.AtomicWriteFile exactly as the worker's default does, with the
// owner as the temp-file suffix so two workers in one process never share
// a temp name.
func (c *commitMeter) hook(owner string, start time.Time, tr *tracer) func(path string, data []byte) error {
	prev := start // only this worker's goroutine calls the hook
	return func(path string, data []byte) error {
		t0 := time.Now()
		err := archive.AtomicWriteFile(path, data, "."+owner)
		t1 := time.Now()
		tr.leaf("checkpoint", t0, t1, -1)
		c.mu.Lock()
		c.latency = append(c.latency, t1.Sub(prev))
		c.mu.Unlock()
		prev = t1
		return err
	}
}

// checkFile compares a restored output file with the payload volume by
// volume and returns the volumes that are wrong or missing.
func checkFile(path string, p payload, volBytes int) (map[int64]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open restored output: %w", err)
	}
	defer f.Close() //dnalint:allow errflow -- read-only file: a close error cannot lose data
	chk := newChecker(p, volBytes)
	buf := make([]byte, volBytes)
	for {
		n, rerr := io.ReadFull(f, buf)
		if _, err := chk.Write(buf[:n]); err != nil {
			return nil, err
		}
		if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("read restored output: %w", rerr)
		}
	}
	return chk.failedSet(), nil
}
