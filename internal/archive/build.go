package archive

import (
	"context"
	"fmt"
	"io"
	"os"

	"dnastore/internal/codec"
	"dnastore/internal/core"
)

// Build encodes r into an archive directory: every volume is encoded and
// simulated through the pipeline's group machinery (core.EncodeVolumes — the
// exact intake path of core.RunStream), its demuxed read shard is framed
// into the shard file, and the manifest is written last, so a directory
// containing a manifest is by construction a complete archive. The returned
// manifest is the one written to disk.
func Build(ctx context.Context, p *core.Pipeline, r io.Reader, dir string, opts core.StreamOptions) (*codec.Manifest, error) {
	if p == nil || p.Codec == nil {
		return nil, core.ErrNotConfigured
	}
	if opts.VolumeBytes <= 0 {
		opts.VolumeBytes = 1 << 20
	}
	m, err := codec.NewManifest(p.Codec, opts.VolumeBytes)
	if err != nil {
		return nil, err
	}
	d := Dir(dir)
	if err := os.MkdirAll(d.StatePath(), 0o755); err != nil {
		return nil, err
	}
	shards, err := os.OpenFile(d.ShardsPath(), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer shards.Close() //dnalint:allow errflow -- double close on the success path; the explicit Close below is the checked one

	geom := p.Codec.Params()
	var shardOff int64
	err = p.EncodeVolumes(ctx, r, opts, func(wk core.VolumeWork) error {
		if wk.Err != nil {
			// Encode-time failures are fatal for Build: an archive with a
			// volume that never produced reads is not worth persisting.
			return fmt.Errorf("archive: volume %d: %w", wk.ID, wk.Err)
		}
		payload := marshalReads(wk.Reads)
		if err := codec.WriteVolumeFrame(shards, codec.VolumeHeader{
			ID: wk.ID, N: geom.N, K: geom.K, PayloadBytes: geom.PayloadBytes,
		}, payload); err != nil {
			return fmt.Errorf("archive: shard write for volume %d: %w", wk.ID, err)
		}
		frameLen := int64(codec.VolumeHeaderBytes + len(payload))
		m.Volumes = append(m.Volumes, codec.ManifestVolume{
			ID:          wk.ID,
			Offset:      int64(wk.ID) * int64(opts.VolumeBytes),
			Length:      int64(wk.Bytes),
			CRC:         wk.DataCRC,
			Strands:     wk.Strands,
			Reads:       len(wk.Reads),
			Spilled:     wk.Spilled,
			ShardOffset: shardOff,
			ShardLength: frameLen,
		})
		m.ArchiveBytes += int64(wk.Bytes)
		shardOff += frameLen
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := shards.Sync(); err != nil {
		return nil, err
	}
	if err := shards.Close(); err != nil {
		return nil, err
	}
	// The manifest lands last, atomically: its presence certifies that every
	// shard byte above it is durable.
	raw, err := codec.MarshalManifest(m)
	if err != nil {
		return nil, err
	}
	if err := AtomicWriteFile(d.ManifestPath(), raw, ""); err != nil {
		return nil, err
	}
	return m, nil
}
