// Package obs is the observability spine for the pipeline: per-stage
// atomic counters (calls, busy time, items in/out, retries, spills,
// panics) collected in a Registry, plus pluggable event hooks that fire at
// stage boundaries (chaos injection rides the same hooks). A run's
// snapshot is what core reports as Result.Stages and StreamResult.Stages,
// and what the CLI's -metrics-json writes.
//
// Metric semantics:
//
//   - Busy time is the summed wall time spent inside a stage's work
//     function across all calls; because stages overlap across workers,
//     busy totals can exceed the run's wall time (by the stage overlap of
//     a streamed run).
//   - ItemsIn/ItemsOut are stage-specific units (bytes into encode,
//     strands out; reads into cluster, clusters out, ...), recorded by the
//     call sites, not inferred.
//   - Counters are monotonic within a registry. Per-run registries are
//     published (atomically merged) into a long-lived sink registry, so a
//     sink accumulates across runs while per-run snapshots stay exact even
//     with concurrent workers.
//   - Every method is nil-receiver safe: a nil *Registry or *Stage records
//     nothing and Time still runs the work function, so call sites never
//     branch on whether metrics are wired.
//
// All timestamps feed telemetry only — they never influence decoded
// bytes, so the determinism guarantee is untouched.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventKind identifies where in a stage's lifecycle a hook fires.
type EventKind uint8

const (
	// StageBegin fires after the call is counted, before the work
	// function runs. A hook that panics here is attributed to the stage
	// by the caller's panic boundary (core wraps it as ErrStagePanic with
	// the stage name) — which is exactly how chaos.PanicHook injects
	// stage panics.
	StageBegin EventKind = iota + 1
	// StageEnd fires after the work function returns normally (not on
	// panic), with its error attached.
	StageEnd
)

// Event is delivered to hooks at stage boundaries.
type Event struct {
	Stage string
	Kind  EventKind
	Err   error
}

// Hook observes stage events. Hooks run synchronously on the stage's
// goroutine; a panicking hook is indistinguishable from a panicking stage.
type Hook func(Event)

// now returns the wall clock for busy-time telemetry. This package is
// deliberately outside the dnalint determinism scope: every timestamp
// feeds counters, never decoded bytes.
func now() time.Time {
	return time.Now()
}

// Stage holds one pipeline stage's counters. All fields are atomics, so a
// stage may be shared by concurrent workers; obtain stages from a Registry.
type Stage struct {
	reg  *Registry
	name string

	calls     atomic.Int64
	busyNanos atomic.Int64
	itemsIn   atomic.Int64
	itemsOut  atomic.Int64
	retries   atomic.Int64
	spills    atomic.Int64
	panics    atomic.Int64
}

func (s *Stage) fire(ev Event) {
	if s == nil || s.reg == nil {
		return
	}
	for _, h := range s.reg.loadHooks() {
		h(ev)
	}
}

// Time runs fn, counting the call and accumulating busy time. StageBegin
// fires before fn, StageEnd (with fn's error) after a normal return. Busy
// time is recorded even if fn panics; the panic propagates to the caller's
// boundary uncounted — the caller owns panic accounting via AddPanics, so
// the same panic is never double-counted. On a nil stage fn still runs.
func (s *Stage) Time(fn func() error) error {
	if s == nil {
		return fn()
	}
	s.calls.Add(1)
	s.fire(Event{Stage: s.name, Kind: StageBegin})
	start := now()
	defer func() { s.busyNanos.Add(now().Sub(start).Nanoseconds()) }()
	err := fn()
	s.fire(Event{Stage: s.name, Kind: StageEnd, Err: err})
	return err
}

// AddIn adds to the stage's items-in counter.
func (s *Stage) AddIn(n int64) {
	if s != nil {
		s.itemsIn.Add(n)
	}
}

// AddOut adds to the stage's items-out counter.
func (s *Stage) AddOut(n int64) {
	if s != nil {
		s.itemsOut.Add(n)
	}
}

// AddRetries adds to the stage's retry counter.
func (s *Stage) AddRetries(n int64) {
	if s != nil {
		s.retries.Add(n)
	}
}

// AddSpills adds to the stage's spill counter (items diverted to an
// overflow path, e.g. demux reads whose volume ID failed to parse).
func (s *Stage) AddSpills(n int64) {
	if s != nil {
		s.spills.Add(n)
	}
}

// AddPanics adds to the stage's contained-panic counter.
func (s *Stage) AddPanics(n int64) {
	if s != nil {
		s.panics.Add(n)
	}
}

// AddBusy adds busy time measured by the caller, for work that does not fit
// one Time call (the archive worker times each claimed volume across its
// lease, decode and commit steps this way).
func (s *Stage) AddBusy(d time.Duration) {
	if s != nil {
		s.busyNanos.Add(d.Nanoseconds())
	}
}

// AddCalls adds to the call counter for work timed with AddBusy instead of
// Time.
func (s *Stage) AddCalls(n int64) {
	if s != nil {
		s.calls.Add(n)
	}
}

// StageSnapshot is a point-in-time copy of one stage's counters, stable
// for JSON emission (-metrics-json).
type StageSnapshot struct {
	Stage       string  `json:"stage"`
	Calls       int64   `json:"calls"`
	BusyNanos   int64   `json:"busy_ns"`
	BusySeconds float64 `json:"busy_seconds"`
	ItemsIn     int64   `json:"items_in"`
	ItemsOut    int64   `json:"items_out"`
	Retries     int64   `json:"retries"`
	Spills      int64   `json:"spills"`
	Panics      int64   `json:"panics"`
}

func (s *Stage) snapshot() StageSnapshot {
	busy := s.busyNanos.Load()
	return StageSnapshot{
		Stage:       s.name,
		Calls:       s.calls.Load(),
		BusyNanos:   busy,
		BusySeconds: time.Duration(busy).Seconds(),
		ItemsIn:     s.itemsIn.Load(),
		ItemsOut:    s.itemsOut.Load(),
		Retries:     s.retries.Load(),
		Spills:      s.spills.Load(),
		Panics:      s.panics.Load(),
	}
}

// Registry is a named collection of stages plus the hook list. Stages are
// created on first use and snapshot in first-use order. A Registry may be
// long-lived (a sink accumulating across runs) or per-run (exact local
// attribution, published into the sink afterwards).
type Registry struct {
	mu     sync.Mutex
	stages map[string]*Stage
	order  []string
	hooks  atomic.Pointer[[]Hook]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{stages: make(map[string]*Stage)}
}

// OnEvent registers a hook for every stage event in this registry.
// Register hooks before handing the registry to a run; registration is
// safe concurrently but events already in flight may miss a new hook.
func (r *Registry) OnEvent(h Hook) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.loadHooks()
	hooks := make([]Hook, len(old)+1)
	copy(hooks, old)
	hooks[len(old)] = h
	r.hooks.Store(&hooks)
}

func (r *Registry) loadHooks() []Hook {
	if r == nil {
		return nil
	}
	if p := r.hooks.Load(); p != nil {
		return *p
	}
	return nil
}

// InheritHooks copies from's hooks into r, so a per-run registry fires
// the sink's hooks. Nil-safe on both sides.
func (r *Registry) InheritHooks(from *Registry) {
	if r == nil || from == nil {
		return
	}
	for _, h := range from.loadHooks() {
		r.OnEvent(h)
	}
}

// Stage returns the named stage, creating it on first use. Returns nil on
// a nil registry (and every Stage method tolerates that).
func (r *Registry) Stage(name string) *Stage {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.stages[name]; ok {
		return st
	}
	st := &Stage{reg: r, name: name}
	if r.stages == nil {
		r.stages = make(map[string]*Stage)
	}
	r.stages[name] = st
	r.order = append(r.order, name)
	return st
}

// Snapshot copies every stage's counters in first-use order. Returns nil
// on a nil registry.
func (r *Registry) Snapshot() []StageSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	stages := make([]*Stage, len(names))
	for i, name := range names {
		stages[i] = r.stages[name]
	}
	r.mu.Unlock()
	out := make([]StageSnapshot, len(stages))
	for i, st := range stages {
		out[i] = st.snapshot()
	}
	return out
}

// Publish merges r's counters into to, stage by stage (created there on
// first use). Counter merges are atomic adds, so concurrent publishers
// never lose updates. Nil-safe on both sides.
func (r *Registry) Publish(to *Registry) {
	if r == nil || to == nil {
		return
	}
	for _, snap := range r.Snapshot() {
		dst := to.Stage(snap.Stage)
		dst.calls.Add(snap.Calls)
		dst.busyNanos.Add(snap.BusyNanos)
		dst.itemsIn.Add(snap.ItemsIn)
		dst.itemsOut.Add(snap.ItemsOut)
		dst.retries.Add(snap.Retries)
		dst.spills.Add(snap.Spills)
		dst.panics.Add(snap.Panics)
	}
}
