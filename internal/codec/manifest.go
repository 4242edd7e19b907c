package codec

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// The archive manifest is the durable root of a distributed archive: it is
// written once at encode time and read by every decode worker, so it carries
// everything a fresh process needs to reconstruct the archive's codec and
// locate each volume — geometry, seed material, and per-volume byte offsets,
// lengths and payload CRCs. Workers trust nothing else: the manifest is
// framed with its own magic, version and CRC32 so a torn or bit-flipped
// manifest surfaces as a typed ErrManifest instead of a misdecoded archive,
// and every field that also appears in a DVOL frame header (geometry, volume
// id, payload length) is cross-checked against it at read time.

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// manifestMagic identifies a framed manifest file ("DMAN", version 1).
var manifestMagic = [5]byte{'D', 'M', 'A', 'N', ManifestVersion}

// ErrManifest marks a manifest that is missing fields, truncated, corrupt,
// or inconsistent with the codec trying to use it.
var ErrManifest = errors.New("codec: bad archive manifest")

// ManifestVolume describes one volume of the archive.
type ManifestVolume struct {
	// ID is the volume's position in the archive (0-based).
	ID uint32 `json:"id"`
	// Offset and Length locate the volume's payload bytes in the decoded
	// archive: the region [Offset, Offset+Length).
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
	// CRC is the IEEE CRC32 of the volume's payload bytes, computed at
	// encode time — the audit's ground truth for a clean decode.
	CRC uint32 `json:"crc"`
	// Strands is the number of encoded molecules, for damage accounting.
	Strands int `json:"strands"`
	// Reads is the number of sequenced reads demuxed into the volume's
	// shard; Spilled counts unroutable reads attributed to this volume.
	Reads   int `json:"reads"`
	Spilled int `json:"spilled,omitempty"`
	// ShardOffset and ShardLength locate the volume's framed read shard
	// (DVOL header + serialized reads) inside the archive's shard file.
	ShardOffset int64 `json:"shardOffset"`
	ShardLength int64 `json:"shardLength"`
}

// Manifest is the durable description of a distributed archive.
type Manifest struct {
	// Version is the manifest format version (ManifestVersion).
	Version int `json:"version"`
	// Geometry and seed material of the archive codec. Layout is the
	// layout's registered name ("baseline", "gini").
	N            int    `json:"n"`
	K            int    `json:"k"`
	PayloadBytes int    `json:"payloadBytes"`
	IndexBases   int    `json:"indexBases"`
	Layout       string `json:"layout"`
	Seed         uint64 `json:"seed"`
	IndexSeed    uint64 `json:"indexSeed,omitempty"`
	// VolumeBytes is the archive payload carried per (full) volume.
	VolumeBytes int `json:"volumeBytes"`
	// ArchiveBytes is the total decoded archive size.
	ArchiveBytes int64 `json:"archiveBytes"`
	// Volumes lists every volume in id order.
	Volumes []ManifestVolume `json:"volumes"`
}

// NewManifest starts a manifest for an archive encoded by c in
// volumeBytes-sized volumes. Codecs with a Mapper or Primers configured are
// rejected: the manifest cannot carry them, and a worker reconstructing the
// codec from the manifest alone would silently misdecode.
func NewManifest(c *Codec, volumeBytes int) (*Manifest, error) {
	if volumeBytes <= 0 {
		return nil, fmt.Errorf("%w: volumeBytes must be positive, got %d", ErrManifest, volumeBytes)
	}
	if c.p.Mapper != nil || c.p.Primers != nil {
		return nil, fmt.Errorf("%w: archive manifests cannot carry Mapper or Primer configuration", ErrManifest)
	}
	switch c.p.Layout.Name() {
	case "baseline", "gini":
	default:
		return nil, fmt.Errorf("%w: layout %q has no manifest representation", ErrManifest, c.p.Layout.Name())
	}
	return &Manifest{
		Version:      ManifestVersion,
		N:            c.p.N,
		K:            c.p.K,
		PayloadBytes: c.p.PayloadBytes,
		IndexBases:   c.p.IndexBases,
		Layout:       c.p.Layout.Name(),
		Seed:         c.p.Seed,
		IndexSeed:    c.p.IndexSeed,
		VolumeBytes:  volumeBytes,
	}, nil
}

// Codec reconstructs the archive codec described by the manifest: a decode
// worker needs nothing but the manifest to derive every volume's codec.
func (m *Manifest) Codec() (*Codec, error) {
	var layout Layout
	switch m.Layout {
	case "baseline", "":
		layout = BaselineLayout{}
	case "gini":
		layout = GiniLayout{}
	default:
		return nil, fmt.Errorf("%w: unknown layout %q", ErrManifest, m.Layout)
	}
	c, err := NewCodec(Params{
		N: m.N, K: m.K, PayloadBytes: m.PayloadBytes, IndexBases: m.IndexBases,
		Seed: m.Seed, IndexSeed: m.IndexSeed, Layout: layout,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrManifest, err)
	}
	return c, nil
}

// Validate checks the manifest against the codec a worker was configured
// with: a geometry or seed mismatch means the worker would decode garbage,
// so it is a hard ErrManifest.
func (m *Manifest) Validate(c *Codec) error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("%w: version %d, this toolkit reads %d", ErrManifest, m.Version, ManifestVersion)
	}
	p := c.p
	if m.N != p.N || m.K != p.K || m.PayloadBytes != p.PayloadBytes || m.IndexBases != p.IndexBases {
		return fmt.Errorf("%w: manifest geometry N=%d K=%d payload=%d index=%d, codec has N=%d K=%d payload=%d index=%d",
			ErrManifest, m.N, m.K, m.PayloadBytes, m.IndexBases, p.N, p.K, p.PayloadBytes, p.IndexBases)
	}
	if m.Seed != p.Seed || m.IndexSeed != p.IndexSeed {
		return fmt.Errorf("%w: manifest seed material differs from the codec's", ErrManifest)
	}
	if m.Layout != p.Layout.Name() {
		return fmt.Errorf("%w: manifest layout %q, codec uses %q", ErrManifest, m.Layout, p.Layout.Name())
	}
	if m.VolumeBytes <= 0 {
		return fmt.Errorf("%w: VolumeBytes %d", ErrManifest, m.VolumeBytes)
	}
	return m.checkVolumes()
}

// checkVolumes validates the internal consistency of the volume table.
func (m *Manifest) checkVolumes() error {
	var total int64
	for i, v := range m.Volumes {
		if v.ID != uint32(i) {
			return fmt.Errorf("%w: volume table entry %d carries id %d", ErrManifest, i, v.ID)
		}
		if v.Offset != int64(i)*int64(m.VolumeBytes) {
			return fmt.Errorf("%w: volume %d at offset %d, want %d", ErrManifest, i, v.Offset, int64(i)*int64(m.VolumeBytes))
		}
		if v.Length < 0 || v.Length > int64(m.VolumeBytes) {
			return fmt.Errorf("%w: volume %d length %d exceeds VolumeBytes %d", ErrManifest, i, v.Length, m.VolumeBytes)
		}
		if v.ShardLength < 0 || v.ShardOffset < 0 {
			return fmt.Errorf("%w: volume %d shard region [%d,+%d) is negative", ErrManifest, i, v.ShardOffset, v.ShardLength)
		}
		total += v.Length
	}
	if total != m.ArchiveBytes {
		return fmt.Errorf("%w: volume lengths sum to %d, ArchiveBytes says %d", ErrManifest, total, m.ArchiveBytes)
	}
	return nil
}

// Volume returns the manifest entry for volume id.
func (m *Manifest) Volume(id uint32) (ManifestVolume, bool) {
	if int(id) >= len(m.Volumes) {
		return ManifestVolume{}, false
	}
	return m.Volumes[id], true
}

// MarshalManifest frames the manifest for durable storage: magic+version,
// payload length, JSON payload, CRC32 of the payload. Any truncation or
// bit flip of the stored bytes is detected by UnmarshalManifest.
func MarshalManifest(m *Manifest) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrManifest, err)
	}
	out := make([]byte, 0, len(manifestMagic)+8+len(payload)+4)
	out = append(out, manifestMagic[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return out, nil
}

// UnmarshalManifest parses a framed manifest, returning ErrManifest on any
// truncation, framing damage, checksum mismatch or malformed payload.
func UnmarshalManifest(raw []byte) (*Manifest, error) {
	headerLen := len(manifestMagic) + 8
	if len(raw) < headerLen+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the smallest valid manifest", ErrManifest, len(raw))
	}
	if [5]byte(raw[:5]) != manifestMagic {
		return nil, fmt.Errorf("%w: magic %x, want %x", ErrManifest, raw[:5], manifestMagic)
	}
	n := binary.BigEndian.Uint64(raw[5:])
	if n != uint64(len(raw)-headerLen-4) {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, file carries %d (torn write?)",
			ErrManifest, n, len(raw)-headerLen-4)
	}
	payload := raw[headerLen : headerLen+int(n)]
	want := binary.BigEndian.Uint32(raw[headerLen+int(n):])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrManifest, got, want)
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrManifest, err)
	}
	if err := m.checkVolumes(); err != nil {
		return nil, err
	}
	return &m, nil
}

// ReadManifest reads and validates a framed manifest file.
func ReadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalManifest(raw)
}
