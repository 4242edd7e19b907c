package cluster

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestClusterContextCancelled(t *testing.T) {
	reads, _ := makePool(t, 6, 60, 110, 6, 0.03)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ClusterContext(ctx, reads, Options{Seed: 7})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Clusters) != 0 {
		t.Fatal("cancelled clustering still returned clusters")
	}
}

func TestShardedContextCancelled(t *testing.T) {
	reads, _ := makePool(t, 8, 60, 110, 6, 0.03)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ShardedContext(ctx, reads, 4, Options{Seed: 9}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestClusterContextMatchesLegacy pins that a live context changes nothing:
// a cancellable context with a far deadline, polled all through the run,
// gives the background context's clusters and decision counters.
func TestClusterContextMatchesLegacy(t *testing.T) {
	reads, _ := makePool(t, 10, 60, 110, 6, 0.03)
	want := mustCluster(t, reads, Options{Seed: 11})
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := ClusterContext(ctx, reads, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Fatal("cluster memberships diverge under a live context")
	}
	if got.Stats.Merges != want.Stats.Merges || got.Stats.EditDistanceCalls != want.Stats.EditDistanceCalls {
		t.Fatalf("stats diverge: %+v vs %+v", got.Stats, want.Stats)
	}
}

// TestClusterOptions pins option handling at both entry points: a GramLen
// outside [0, maxRollingQ] is an ErrOptions error, the limits themselves
// are accepted, and Workers <= 0 means GOMAXPROCS.
func TestClusterOptions(t *testing.T) {
	reads, _ := makePool(t, 12, 40, 110, 5, 0.03)
	ctx := context.Background()
	entries := []struct {
		name string
		run  func(Options) (Result, error)
	}{
		{"ClusterContext", func(o Options) (Result, error) { return ClusterContext(ctx, reads, o) }},
		{"ShardedContext", func(o Options) (Result, error) { return ShardedContext(ctx, reads, 3, o) }},
	}
	for _, e := range entries {
		for _, q := range []int{-2, -1, maxRollingQ + 1, 12} {
			if _, err := e.run(Options{GramLen: q, Seed: 13}); !errors.Is(err, ErrOptions) {
				t.Errorf("%s GramLen %d: err = %v, want ErrOptions", e.name, q, err)
			}
		}
		for _, q := range []int{1, maxRollingQ} {
			if res, err := e.run(Options{GramLen: q, Seed: 13}); err != nil || len(res.Clusters) == 0 {
				t.Errorf("%s GramLen %d: %d clusters, err %v", e.name, q, len(res.Clusters), err)
			}
		}
		want, err := e.run(Options{Seed: 13, Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{-1, 0} {
			got, err := e.run(Options{Seed: 13, Workers: w})
			if err != nil {
				t.Fatalf("%s Workers %d: %v", e.name, w, err)
			}
			if !reflect.DeepEqual(got.Clusters, want.Clusters) {
				t.Errorf("%s Workers %d: clusters differ from Workers = GOMAXPROCS", e.name, w)
			}
		}
	}
	// Invalid options are rejected before the input is looked at.
	if _, err := ClusterContext(ctx, nil, Options{GramLen: 9}); !errors.Is(err, ErrOptions) {
		t.Errorf("empty input with GramLen 9: err = %v, want ErrOptions", err)
	}
}
