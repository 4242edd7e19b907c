package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dnastore/internal/codec"
)

func TestEncodeDecodeVolumesMatchesRunStream(t *testing.T) {
	// The archive layer's foundation: a shard set produced by EncodeVolumes
	// and decoded volume-by-volume through DecodeVolume must reproduce the
	// exact bytes and telemetry of a single-process RunStream. The sizes
	// cover the shared chunking rule's edges at 600-byte volumes: an empty
	// archive (volume 0 still exists), one short volume, one full volume,
	// an exact multiple and a short tail; the pool groups cover groups of
	// one, a short last group and a group larger than some archives.
	for _, size := range []int{0, 250, 600, 1800, 2750} {
		for _, group := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("bytes=%d/group=%d", size, group), func(t *testing.T) {
				data := streamTestData(size)
				opts := StreamOptions{VolumeBytes: 600, PoolGroup: group}

				var streamOut bytes.Buffer
				streamRes, err := streamPipeline(t).RunStream(context.Background(), bytes.NewReader(data), &streamOut, opts)
				if err != nil {
					t.Fatal(err)
				}

				p := streamPipeline(t)
				var works []VolumeWork
				err = p.EncodeVolumes(context.Background(), bytes.NewReader(data), opts, func(wk VolumeWork) error {
					works = append(works, wk)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				want := codec.VolumeCount(int64(size), opts.VolumeBytes)
				if len(works) != want || len(streamRes.Volumes) != want {
					t.Fatalf("EncodeVolumes emitted %d volumes, RunStream processed %d, want %d", len(works), len(streamRes.Volumes), want)
				}

				var assembled []byte
				for i, wk := range works {
					sv := streamRes.Volumes[i]
					if wk.ID != uint32(i) || sv.ID != uint32(i) {
						t.Fatalf("volume %d emitted as id %d, streamed as id %d", i, wk.ID, sv.ID)
					}
					if wk.Bytes != sv.Bytes || wk.Strands != sv.Strands || len(wk.Reads) != sv.Reads || wk.Spilled != sv.ClusterStats.Spilled {
						t.Fatalf("volume %d shard: %d bytes/%d strands/%d reads/%d spilled, stream saw %d/%d/%d/%d",
							i, wk.Bytes, wk.Strands, len(wk.Reads), wk.Spilled, sv.Bytes, sv.Strands, sv.Reads, sv.ClusterStats.Spilled)
					}
					vr := p.DecodeVolume(context.Background(), wk, opts)
					if vr.Err != nil {
						t.Fatalf("volume %d: %v", i, vr.Err)
					}
					if vr.Outcome != OutcomeDecoded || vr.DamageBytes != 0 {
						t.Fatalf("volume %d outcome %v damage %d, want clean decode", i, vr.Outcome, vr.DamageBytes)
					}
					if vr.Attempts != sv.Attempts || vr.Clusters != sv.Clusters {
						t.Fatalf("volume %d telemetry differs from stream: attempts %d/%d clusters %d/%d",
							i, vr.Attempts, sv.Attempts, vr.Clusters, sv.Clusters)
					}
					assembled = append(assembled, vr.Output()...)
				}
				if !bytes.Equal(assembled, streamOut.Bytes()) {
					t.Fatal("per-volume decode output differs from RunStream output")
				}
				if !bytes.Equal(assembled, data) {
					t.Fatal("per-volume decode output differs from input")
				}
			})
		}
	}
}

func TestDecodeVolumeErrorNamesStage(t *testing.T) {
	// DecodeVolume records into Pipeline.Metrics, here nil: the contained
	// panic of its clustering stage must still name the stage.
	p := streamPipeline(t)
	p.Clusterer = panicClusterer{inner: p.Clusterer.(OptionsClusterer), target: 0}
	opts := StreamOptions{VolumeBytes: 600}
	var works []VolumeWork
	err := p.EncodeVolumes(context.Background(), bytes.NewReader(streamTestData(500)), opts, func(wk VolumeWork) error {
		works = append(works, wk)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	vr := p.DecodeVolume(context.Background(), works[0], opts)
	if !errors.Is(vr.Err, ErrStagePanic) || !strings.Contains(vr.Err.Error(), "panicked: cluster:") {
		t.Fatalf("err = %v, want ErrStagePanic naming the cluster stage", vr.Err)
	}
}

func TestStreamOutcomeRecords(t *testing.T) {
	// Per-volume outcome records: a dropped volume is OutcomeFailed with its
	// whole span as damage, the rest are OutcomeDecoded, and Degraded()
	// surfaces exactly the degraded ones.
	p := streamPipeline(t)
	p.Simulator = dropVolumeSim{inner: p.Simulator.(PoolSimulator), drop: 1}
	data := streamTestData(1800) // 3 volumes
	var out bytes.Buffer
	res, err := p.RunStream(context.Background(), bytes.NewReader(data), &out, StreamOptions{
		RunOptions:  RunOptions{BestEffort: true},
		VolumeBytes: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Volumes {
		want := OutcomeDecoded
		if i == 1 {
			want = OutcomeFailed
		}
		if v.Outcome != want {
			t.Fatalf("volume %d outcome = %v, want %v", i, v.Outcome, want)
		}
	}
	if res.Volumes[1].DamageBytes != res.Volumes[1].Bytes {
		t.Fatalf("failed volume damage = %d, want full span %d", res.Volumes[1].DamageBytes, res.Volumes[1].Bytes)
	}
	if res.Volumes[0].DamageBytes != 0 {
		t.Fatalf("clean volume reports %d damage bytes", res.Volumes[0].DamageBytes)
	}
	deg := res.Degraded()
	if len(deg) != 1 || deg[0].ID != 1 {
		t.Fatalf("Degraded() = %+v, want exactly volume 1", deg)
	}
	if res.SalvagedVolumes != 0 || res.FailedVolumes != 1 {
		t.Fatalf("salvaged=%d failed=%d, want 0/1", res.SalvagedVolumes, res.FailedVolumes)
	}
}

func TestVolumeOutcomeStrings(t *testing.T) {
	for _, o := range []VolumeOutcome{OutcomeDecoded, OutcomeSalvaged, OutcomeFailed} {
		got, err := ParseOutcome(o.String())
		if err != nil || got != o {
			t.Fatalf("ParseOutcome(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := ParseOutcome("exploded"); err == nil {
		t.Fatal("ParseOutcome accepted an unknown outcome")
	}
}
