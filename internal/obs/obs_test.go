package obs

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestStageTimeCountsCallsAndBusy(t *testing.T) {
	r := NewRegistry()
	st := r.Stage("simulate")
	for i := 0; i < 3; i++ {
		err := st.Time(func() error {
			time.Sleep(2 * time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatalf("Time returned %v", err)
		}
	}
	wantErr := errors.New("boom")
	if err := st.Time(func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Time swallowed error: %v", err)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Stage != "simulate" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Calls != 4 {
		t.Fatalf("calls = %d, want 4", snap[0].Calls)
	}
	if snap[0].BusyNanos < (6 * time.Millisecond).Nanoseconds() {
		t.Fatalf("busy = %d ns, want >= 6ms", snap[0].BusyNanos)
	}
	if snap[0].BusySeconds != time.Duration(snap[0].BusyNanos).Seconds() {
		t.Fatal("BusySeconds inconsistent with BusyNanos")
	}
}

func TestStageTimeRecordsBusyOnPanic(t *testing.T) {
	r := NewRegistry()
	st := r.Stage("cluster")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate through Time")
			}
		}()
		_ = st.Time(func() error {
			time.Sleep(time.Millisecond)
			panic("injected")
		})
	}()
	snap := r.Snapshot()[0]
	if snap.Calls != 1 {
		t.Fatalf("calls = %d, want 1", snap.Calls)
	}
	if snap.BusyNanos <= 0 {
		t.Fatal("busy time not recorded on panic")
	}
	// Panic accounting belongs to the caller's boundary, not Time.
	if snap.Panics != 0 {
		t.Fatalf("panics = %d, want 0 (caller owns AddPanics)", snap.Panics)
	}
}

func TestHooksFireInOrder(t *testing.T) {
	r := NewRegistry()
	var events []Event
	r.OnEvent(func(ev Event) { events = append(events, ev) })
	wantErr := errors.New("stage failed")
	_ = r.Stage("decode").Time(func() error { return wantErr })
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Kind != StageBegin || events[0].Stage != "decode" || events[0].Err != nil {
		t.Fatalf("begin event = %+v", events[0])
	}
	if events[1].Kind != StageEnd || !errors.Is(events[1].Err, wantErr) {
		t.Fatalf("end event = %+v", events[1])
	}
}

func TestHookPanicPropagatesBeforeWork(t *testing.T) {
	r := NewRegistry()
	r.OnEvent(func(ev Event) {
		if ev.Kind == StageBegin {
			panic("hook bomb")
		}
	})
	ran := false
	func() {
		defer func() { _ = recover() }()
		_ = r.Stage("encode").Time(func() error { ran = true; return nil })
	}()
	if ran {
		t.Fatal("work function ran despite StageBegin hook panic")
	}
}

func TestInheritHooks(t *testing.T) {
	sink := NewRegistry()
	var fired int
	sink.OnEvent(func(Event) { fired++ })
	run := NewRegistry()
	run.InheritHooks(sink)
	_ = run.Stage("encode").Time(func() error { return nil })
	if fired != 2 {
		t.Fatalf("inherited hook fired %d times, want 2", fired)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Stage("x") != nil {
		t.Fatal("nil registry returned a stage")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry returned a snapshot")
	}
	r.OnEvent(func(Event) {})
	r.InheritHooks(NewRegistry())
	r.Publish(NewRegistry())
	NewRegistry().Publish(r)

	var st *Stage
	ran := false
	if err := st.Time(func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatal("nil stage must still run fn")
	}
	st.AddIn(1)
	st.AddOut(1)
	st.AddRetries(1)
	st.AddSpills(1)
	st.AddPanics(1)
	st.AddBusy(time.Second)
	st.AddCalls(1)
}

func TestCountersAndSnapshotOrder(t *testing.T) {
	r := NewRegistry()
	r.Stage("encode").AddIn(100)
	r.Stage("cluster").AddSpills(7)
	r.Stage("encode").AddOut(42)
	r.Stage("decode").AddRetries(2)
	r.Stage("decode").AddPanics(1)
	snap := r.Snapshot()
	names := []string{snap[0].Stage, snap[1].Stage, snap[2].Stage}
	want := []string{"encode", "cluster", "decode"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v (first use)", names, want)
		}
	}
	if snap[0].ItemsIn != 100 || snap[0].ItemsOut != 42 {
		t.Fatalf("encode counters = %+v", snap[0])
	}
	if snap[1].Spills != 7 || snap[2].Retries != 2 || snap[2].Panics != 1 {
		t.Fatalf("counters wrong: %+v", snap)
	}
}

func TestPublishMergesAtomically(t *testing.T) {
	sink := NewRegistry()
	sink.Stage("cluster").AddIn(5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := NewRegistry()
			run.Stage("cluster").AddIn(10)
			run.Stage("cluster").AddBusy(time.Millisecond)
			run.Stage("recon").AddOut(1)
			run.Publish(sink)
		}()
	}
	wg.Wait()
	snap := sink.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("sink has %d stages, want 2", len(snap))
	}
	if snap[0].Stage != "cluster" || snap[0].ItemsIn != 85 {
		t.Fatalf("cluster merge = %+v, want items_in 85", snap[0])
	}
	if snap[0].BusyNanos != (8 * time.Millisecond).Nanoseconds() {
		t.Fatalf("busy merge = %d", snap[0].BusyNanos)
	}
	if snap[1].Stage != "recon" || snap[1].ItemsOut != 8 {
		t.Fatalf("recon merge = %+v", snap[1])
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Stage("encode").AddIn(3)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	keys := []string{"stage", "calls", "busy_ns", "busy_seconds", "items_in", "items_out", "retries", "spills", "panics"}
	for _, key := range keys {
		if _, ok := decoded[0][key]; !ok {
			t.Fatalf("snapshot JSON missing %q: %s", key, b)
		}
	}
	if len(decoded[0]) != len(keys) {
		t.Fatalf("snapshot JSON has keys beyond %v: %s", keys, b)
	}
}
