package codec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// The volume layer splits an archive into fixed-size, independently
// decodable volumes. Each volume is encoded exactly like a standalone file
// (EncodeFile is the single-volume special case) by a codec derived from the
// archive codec:
//
//   - the scrambler seed is derived per volume from the master seed via the
//     splitmix mixer (VolumeSeed), so every volume gets an independent
//     keystream and any volume can be decoded knowing only the master seed
//     and its id;
//   - the index mask is shared across all volumes (Params.IndexSeed), and
//     volume v's molecules occupy the index range [v·capacity, (v+1)·capacity)
//     of one archive-wide index space (Params.IndexOffset), so a pooled read
//     can be routed back to its volume by unmasking its index prefix alone
//     (ReadVolumeID) — the demux stage of the streaming runtime;
//   - the volume's payload is framed with its own header (magic, geometry,
//     id, payload length, CRC32), so a decoded volume is self-describing and
//     cross-volume mixups or silent corruption are detected end-to-end.

// volumeMagic identifies a framed volume payload ("DVOL", version 1).
var volumeMagic = [5]byte{'D', 'V', 'O', 'L', 1}

// VolumeHeaderBytes is the size of the framed per-volume header:
// magic+version (5), reserved (1), N (2), K (2), PayloadBytes (2), id (4),
// payload length (8), CRC32 (4).
const VolumeHeaderBytes = 28

// VolumeHeader is the decoded per-volume frame header.
type VolumeHeader struct {
	// ID is the volume's position in the archive (0-based).
	ID uint32
	// N, K and PayloadBytes echo the codec geometry the volume was encoded
	// with; a mismatch against the decoding codec is a hard error.
	N, K, PayloadBytes int
	// PayloadLen is the number of archive bytes the volume carries.
	PayloadLen uint64
	// CRC is the IEEE CRC32 of the payload bytes.
	CRC uint32
}

// Typed sentinel errors of the volume layer; both wrap ErrDecode so existing
// errors.Is(err, ErrDecode) checks keep matching.
var (
	// ErrVolumeHeader marks a volume whose frame header is missing, from a
	// different volume, or geometry-incompatible with the decoding codec.
	ErrVolumeHeader = errors.New("codec: bad volume header")
	// ErrVolumeChecksum marks a volume whose payload decoded but failed its
	// CRC — the outer code repaired the wrong thing or damage slipped
	// through undetected.
	ErrVolumeChecksum = errors.New("codec: volume checksum mismatch")
	// ErrVolumeTruncated marks a volume whose frame header claims more
	// payload bytes than are actually present — a torn tail, a truncated
	// shard file, or a decode that came up short. In best-effort mode the
	// volume counts as damaged and its available bytes are salvaged; it is
	// never a silent EOF or a short-read panic.
	ErrVolumeTruncated = errors.New("codec: volume truncated")
)

// volumeSeedTag separates the per-volume seed stream from every other
// derived stream in the toolkit.
const volumeSeedTag = 0x766f_6c75_6d65 // "volume"

// VolumeSeed derives volume id's scrambler seed from the archive's master
// seed. Distinct volumes get statistically independent keystreams while any
// volume remains decodable from (master seed, id) alone.
func VolumeSeed(master uint64, id uint32) uint64 {
	return xrand.Derive(master, volumeSeedTag^uint64(id)).Uint64()
}

// archiveIndexSeed is the shared index-mask seed of all volumes of this
// archive (see Params.IndexSeed). It must be non-zero so derived codecs do
// not fall back to their per-volume scrambler seed.
func (c *Codec) archiveIndexSeed() uint64 {
	s := c.p.IndexSeed
	if s == 0 {
		s = c.p.Seed
	}
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return s
}

// VolumeCapacity returns the number of molecule indices reserved per volume
// of the given payload size: the strand count of a full volume (header
// included). All volumes of an archive reserve the full-volume capacity so
// offsets are a pure multiplication even when the last volume runs short.
func (c *Codec) VolumeCapacity(volumeBytes int) uint64 {
	return uint64(c.Molecules(VolumeHeaderBytes + volumeBytes))
}

// VolumeCount returns the number of volumes an archive of totalBytes splits
// into at the given volume payload size (at least 1: an empty archive still
// frames one empty volume).
func VolumeCount(totalBytes int64, volumeBytes int) int {
	if totalBytes <= 0 {
		return 1
	}
	return int((totalBytes + int64(volumeBytes) - 1) / int64(volumeBytes))
}

// VolumeCodec derives the codec that encodes/decodes volume id of an archive
// split into volumeBytes-sized volumes: per-volume scrambler seed, shared
// index mask, and the volume's slice of the archive index space.
func (c *Codec) VolumeCodec(id uint32, volumeBytes int) (*Codec, error) {
	if volumeBytes <= 0 {
		return nil, fmt.Errorf("codec: volumeBytes must be positive, got %d", volumeBytes)
	}
	p := c.p
	p.Seed = VolumeSeed(c.p.Seed, id)
	p.IndexSeed = c.archiveIndexSeed()
	p.IndexOffset = uint64(id) * c.VolumeCapacity(volumeBytes)
	return NewCodec(p)
}

// EncodeVolume frames data as volume id of the archive and encodes it into
// DNA strands with the volume's derived codec. len(data) must not exceed
// volumeBytes; only the final volume of an archive may run short.
func (c *Codec) EncodeVolume(id uint32, volumeBytes int, data []byte) ([]dna.Seq, error) {
	if len(data) > volumeBytes {
		return nil, fmt.Errorf("codec: volume %d carries %d bytes, exceeding volumeBytes=%d", id, len(data), volumeBytes)
	}
	vc, err := c.VolumeCodec(id, volumeBytes)
	if err != nil {
		return nil, err
	}
	header := EncodeVolumeHeader(VolumeHeader{
		ID: id, N: c.p.N, K: c.p.K, PayloadBytes: c.p.PayloadBytes,
		PayloadLen: uint64(len(data)), CRC: crc32.ChecksumIEEE(data),
	})
	framed := make([]byte, VolumeHeaderBytes+len(data))
	copy(framed, header[:])
	copy(framed[VolumeHeaderBytes:], data)
	return vc.EncodeFile(framed)
}

// parseVolumeHeader validates a decoded volume frame against the expected id
// and the decoding codec's geometry. A decoded volume too short to hold the
// header is ErrVolumeHeader, not DecodeVolumeHeader's ErrVolumeTruncated:
// DecodeVolumeContext's best-effort branch slices the payload after the
// header on ErrVolumeTruncated.
func (c *Codec) parseVolumeHeader(raw []byte, id uint32) (VolumeHeader, error) {
	if len(raw) < VolumeHeaderBytes {
		return VolumeHeader{}, fmt.Errorf("%w (%w): volume %d decoded to %d bytes, need %d for the header",
			ErrVolumeHeader, ErrDecode, id, len(raw), VolumeHeaderBytes)
	}
	h, err := DecodeVolumeHeader(raw)
	if err != nil {
		return h, fmt.Errorf("volume %d: %w", id, err)
	}
	if h.ID != id {
		return h, fmt.Errorf("%w (%w): strands frame volume %d, expected %d", ErrVolumeHeader, ErrDecode, h.ID, id)
	}
	if h.N != c.p.N || h.K != c.p.K || h.PayloadBytes != c.p.PayloadBytes {
		return h, fmt.Errorf("%w (%w): volume %d geometry N=%d K=%d payload=%d, codec has N=%d K=%d payload=%d",
			ErrVolumeHeader, ErrDecode, id, h.N, h.K, h.PayloadBytes, c.p.N, c.p.K, c.p.PayloadBytes)
	}
	if h.PayloadLen > uint64(len(raw)-VolumeHeaderBytes) {
		return h, fmt.Errorf("%w (%w): volume %d header claims %d payload bytes but only %d decoded",
			ErrVolumeTruncated, ErrDecode, id, h.PayloadLen, len(raw)-VolumeHeaderBytes)
	}
	return h, nil
}

// EncodeVolumeHeader renders h as the on-disk/on-strand 28-byte DVOL frame
// header. PayloadLen and CRC must already describe the payload that follows.
func EncodeVolumeHeader(h VolumeHeader) [VolumeHeaderBytes]byte {
	var raw [VolumeHeaderBytes]byte
	copy(raw[:], volumeMagic[:])
	binary.BigEndian.PutUint16(raw[6:], uint16(h.N))
	binary.BigEndian.PutUint16(raw[8:], uint16(h.K))
	binary.BigEndian.PutUint16(raw[10:], uint16(h.PayloadBytes))
	binary.BigEndian.PutUint32(raw[12:], h.ID)
	binary.BigEndian.PutUint64(raw[16:], h.PayloadLen)
	binary.BigEndian.PutUint32(raw[24:], h.CRC)
	return raw
}

// DecodeVolumeHeader parses a standalone DVOL frame header, checking only the
// frame itself (magic and length) — callers that know which volume and codec
// they expect must cross-check ID and geometry themselves (the archive layer
// validates both against its manifest).
func DecodeVolumeHeader(raw []byte) (VolumeHeader, error) {
	var h VolumeHeader
	if len(raw) < VolumeHeaderBytes {
		return h, fmt.Errorf("%w (%w): %d header bytes, need %d",
			ErrVolumeTruncated, ErrDecode, len(raw), VolumeHeaderBytes)
	}
	if [5]byte(raw[:5]) != volumeMagic {
		return h, fmt.Errorf("%w (%w): magic %x, want %x", ErrVolumeHeader, ErrDecode, raw[:5], volumeMagic)
	}
	h.N = int(binary.BigEndian.Uint16(raw[6:]))
	h.K = int(binary.BigEndian.Uint16(raw[8:]))
	h.PayloadBytes = int(binary.BigEndian.Uint16(raw[10:]))
	h.ID = binary.BigEndian.Uint32(raw[12:])
	h.PayloadLen = binary.BigEndian.Uint64(raw[16:])
	h.CRC = binary.BigEndian.Uint32(raw[24:])
	return h, nil
}

// WriteVolumeFrame writes one DVOL frame (header + payload) to w, filling in
// h.PayloadLen and h.CRC from the payload. The archive layer uses it to store
// each volume's demuxed reads as a self-describing shard record.
func WriteVolumeFrame(w io.Writer, h VolumeHeader, payload []byte) error {
	h.PayloadLen = uint64(len(payload))
	h.CRC = crc32.ChecksumIEEE(payload)
	raw := EncodeVolumeHeader(h)
	if _, err := w.Write(raw[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadVolumeFrame reads one DVOL frame from r. At a clean end of stream it
// returns io.EOF; a frame cut off mid-header or mid-payload returns
// ErrVolumeTruncated, and a header whose claimed length exceeds maxPayload is
// also ErrVolumeTruncated (a torn or corrupt length field must not drive a
// multi-gigabyte allocation). A payload that fails its CRC returns
// ErrVolumeChecksum alongside the bytes actually read.
func ReadVolumeFrame(r io.Reader, maxPayload int64) (VolumeHeader, []byte, error) {
	var raw [VolumeHeaderBytes]byte
	n, err := io.ReadFull(r, raw[:])
	if err != nil {
		if n == 0 && errors.Is(err, io.EOF) {
			return VolumeHeader{}, nil, io.EOF
		}
		return VolumeHeader{}, nil, fmt.Errorf("%w (%w): frame cut off after %d of %d header bytes",
			ErrVolumeTruncated, ErrDecode, n, VolumeHeaderBytes)
	}
	h, err := DecodeVolumeHeader(raw[:])
	if err != nil {
		return h, nil, err
	}
	if maxPayload >= 0 && h.PayloadLen > uint64(maxPayload) {
		return h, nil, fmt.Errorf("%w (%w): volume %d header claims %d payload bytes, limit is %d",
			ErrVolumeTruncated, ErrDecode, h.ID, h.PayloadLen, maxPayload)
	}
	payload := make([]byte, h.PayloadLen)
	if n, err := io.ReadFull(r, payload); err != nil {
		return h, nil, fmt.Errorf("%w (%w): volume %d frame cut off after %d of %d payload bytes",
			ErrVolumeTruncated, ErrDecode, h.ID, n, h.PayloadLen)
	}
	if got := crc32.ChecksumIEEE(payload); got != h.CRC {
		return h, payload, fmt.Errorf("%w (%w): volume %d frame payload checksum %08x, want %08x",
			ErrVolumeChecksum, ErrDecode, h.ID, got, h.CRC)
	}
	return h, payload, nil
}

// DecodeVolumeContext reassembles and error-corrects one volume from
// reconstructed strands, verifying the frame header and payload checksum.
// In best-effort mode a checksum mismatch degrades to a Partial report
// instead of an error, so one damaged volume yields its salvageable bytes
// rather than failing the archive.
func (c *Codec) DecodeVolumeContext(ctx context.Context, id uint32, volumeBytes int, strands []dna.Seq, opts DecodeOptions) (VolumeHeader, []byte, Report, error) {
	vc, err := c.VolumeCodec(id, volumeBytes)
	if err != nil {
		return VolumeHeader{}, nil, Report{}, err
	}
	raw, rep, err := vc.DecodeFileContext(ctx, strands, opts)
	if err != nil {
		return VolumeHeader{}, nil, rep, err
	}
	h, err := c.parseVolumeHeader(raw, id)
	if err != nil {
		if opts.BestEffort && errors.Is(err, ErrVolumeTruncated) {
			// The frame is sound but the decoded payload came up short (a
			// torn tail). Salvage what is present; the volume counts as
			// damaged, never as a clean decode.
			rep.Partial = true
			return h, raw[VolumeHeaderBytes:], rep, nil
		}
		return h, nil, rep, err
	}
	data := raw[VolumeHeaderBytes : VolumeHeaderBytes+h.PayloadLen]
	if crc32.ChecksumIEEE(data) != h.CRC {
		if !opts.BestEffort {
			return h, nil, rep, fmt.Errorf("%w (%w): volume %d", ErrVolumeChecksum, ErrDecode, id)
		}
		rep.Partial = true
	}
	return h, data, rep, nil
}

// ReadVolumeID routes a (possibly noisy) read to the volume its index prefix
// claims: the index field is unmasked with the archive-wide index mask and
// divided by the per-volume capacity. It reports false when the read is too
// short to contain an index or the index lies outside the archive's address
// space — such reads belong in the demux spill shard. Routing is
// position-based and best-effort: an indel inside the prefix can misroute a
// read, which downstream clustering and the outer code absorb.
func (c *Codec) ReadVolumeID(read dna.Seq, capacity uint64) (uint32, bool) {
	if capacity == 0 {
		return 0, false
	}
	skip := 0
	if c.p.Primers != nil {
		skip = len(c.p.Primers.Forward)
	}
	if len(read) < skip+c.p.IndexBases {
		return 0, false
	}
	// The archive-wide mask every volume codec shares: computed from the
	// base codec's archive index seed, so demux can unmask prefixes without
	// constructing a volume codec first.
	idx := dna.DecodeUint(read[skip:skip+c.p.IndexBases]) ^ c.indexMaskFrom(c.archiveIndexSeed())
	if idx >= c.MaxMolecules() {
		return 0, false
	}
	return uint32(idx / capacity), true
}
