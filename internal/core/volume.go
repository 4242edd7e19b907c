package core

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"

	"dnastore/internal/dna"
)

// This file is the per-volume face of the streaming runtime: the same
// machinery RunStream drives through channels, exposed as two calls — produce
// each volume's demuxed read shard (EncodeVolumes), and turn one shard back
// into bytes (DecodeVolume). The archive layer builds its multi-process
// decode on exactly these entry points, which is what makes its output
// byte-identical to a single-process RunStream: both paths run the same
// processGroup/processVolume code on the same (options, seed, id, bytes)
// inputs, so scheduling — or even which process does the work — cannot
// change a single output byte.

// VolumeOutcome classifies how a volume's decode ended.
type VolumeOutcome uint8

const (
	// OutcomeDecoded: every byte recovered and verified.
	OutcomeDecoded VolumeOutcome = iota
	// OutcomeSalvaged: best-effort bytes were returned but some are
	// unverified or known wrong (see VolumeResult.DamageBytes).
	OutcomeSalvaged
	// OutcomeFailed: the volume produced no usable bytes; its region of the
	// output is zero-filled.
	OutcomeFailed
)

// String returns the outcome's stable lower-case name, used in checkpoint
// files and reports.
func (o VolumeOutcome) String() string {
	switch o {
	case OutcomeDecoded:
		return "decoded"
	case OutcomeSalvaged:
		return "salvaged"
	case OutcomeFailed:
		return "failed"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// ParseOutcome is the inverse of VolumeOutcome.String.
func ParseOutcome(s string) (VolumeOutcome, error) {
	switch s {
	case "decoded":
		return OutcomeDecoded, nil
	case "salvaged":
		return OutcomeSalvaged, nil
	case "failed":
		return OutcomeFailed, nil
	}
	return 0, fmt.Errorf("core: unknown volume outcome %q", s)
}

// finalizeOutcome derives the volume's outcome record from its error and
// damage report. unitDataBytes localizes damage: each damaged encoding unit
// taints UnitDataBytes of output; damage the report cannot localize (e.g. a
// truncated frame) taints the whole volume.
func (vr *VolumeResult) finalizeOutcome(unitDataBytes int) {
	switch {
	case vr.Err != nil:
		vr.Outcome = OutcomeFailed
		vr.DamageBytes = vr.Bytes
	case vr.Report.Clean():
		vr.Outcome = OutcomeDecoded
		vr.DamageBytes = 0
	default:
		vr.Outcome = OutcomeSalvaged
		db := len(vr.Report.DamagedUnits()) * unitDataBytes
		if db == 0 || db > vr.Bytes {
			db = vr.Bytes
		}
		vr.DamageBytes = db
	}
}

// Output returns the volume's bytes as they belong in the archive: Data, or
// for a damaged or short volume Data zero-filled to Bytes, so the volumes
// after it keep their archive offsets.
func (vr *VolumeResult) Output() []byte {
	if len(vr.Data) == vr.Bytes {
		return vr.Data
	}
	padded := make([]byte, vr.Bytes)
	copy(padded, vr.Data)
	return padded
}

// VolumeWork is one volume's demuxed read shard: everything DecodeVolume
// needs, in any process, to reproduce the volume's bytes. It is the unit the
// archive layer persists (as a DVOL-framed shard) and hands to workers, and
// the unit RunStream passes from its group stage (encode+simulate+demux) to
// its volume stage (cluster+reconstruct+decode).
type VolumeWork struct {
	// ID is the volume's position in the archive (0-based).
	ID uint32
	// Bytes is the archive payload length the volume carries.
	Bytes int
	// Strands is the number of molecules the volume encoded to; the decode
	// phase uses it to size its coverage heuristics.
	Strands int
	// Spilled counts pooled reads demux could not route, attributed to this
	// volume (the first of its pooling group).
	Spilled int
	// DataCRC is the IEEE CRC32 of the volume's payload bytes at encode
	// time — the manifest's ground truth for auditing a decode. EncodeVolumes
	// sets it; RunStream, which checks no manifest, leaves it zero.
	DataCRC uint32
	// Reads is the volume's shard of sequenced reads.
	Reads []dna.Seq
	// Err is a group-stage failure (encode or simulate); a volume carrying
	// one has no reads and can only fail downstream.
	Err error
}

// EncodeVolumes splits r into volumes, encodes and simulates them in pooling
// groups, demuxes the pooled reads, and hands each volume's VolumeWork to
// emit in id order. It is the intake half of RunStream run serially: the
// chunking, pooling, seeding and demux rules are byte-for-byte the same, so
// a shard set produced here and decoded per-volume (DecodeVolume) converges
// to the same bytes as a RunStream of the same input. A non-nil error from
// emit aborts the sweep and is returned verbatim.
func (p *Pipeline) EncodeVolumes(ctx context.Context, r io.Reader, opts StreamOptions, emit func(VolumeWork) error) error {
	if p.Codec == nil || p.Simulator == nil {
		return ErrNotConfigured
	}
	opts = opts.withDefaults()
	live := func() error {
		if ctx.Err() != nil {
			return cancelErr(ctx, "encode-volumes")
		}
		return nil
	}
	return readVolumes(r, opts, "archive", live, func(group []volumeChunk) error {
		// Counters record straight into p.Metrics (nil records nothing).
		works := p.processGroup(ctx, group, opts, p.Metrics)
		if err := live(); err != nil {
			return err
		}
		for i, wk := range works {
			wk.DataCRC = crc32.ChecksumIEEE(group[i].data)
			if err := emit(wk); err != nil {
				return err
			}
		}
		return nil
	})
}

// DecodeVolume runs one volume's shard through cluster → reconstruct →
// decode — the exact code path RunStream's volume workers run — and returns
// its VolumeResult (outcome, damage accounting, and recovered Data). It is
// deterministic in (options, codec seed, wk): any process, on any schedule,
// produces the same bytes, which is the foundation of the archive layer's
// crash-consistency argument (redoing a volume is idempotent).
func (p *Pipeline) DecodeVolume(ctx context.Context, wk VolumeWork, opts StreamOptions) VolumeResult {
	if p.Codec == nil || p.Clusterer == nil || p.Reconstructor == nil {
		vr := VolumeResult{ID: wk.ID, Bytes: wk.Bytes, Err: ErrNotConfigured}
		vr.finalizeOutcome(0)
		return vr
	}
	return p.processVolume(ctx, wk, opts.withDefaults(), p.Metrics)
}
