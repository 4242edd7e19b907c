package codec

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dnastore/internal/primer"
)

func testManifest(t *testing.T, c *Codec) *Manifest {
	t.Helper()
	m, err := NewManifest(c, 200)
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{200, 200, 57}
	var off, shardOff int64
	for i, n := range lengths {
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(i*31 + j)
		}
		m.Volumes = append(m.Volumes, ManifestVolume{
			ID: uint32(i), Offset: off, Length: int64(n),
			CRC: crc32.ChecksumIEEE(payload), Strands: 30, Reads: 240,
			ShardOffset: shardOff, ShardLength: int64(VolumeHeaderBytes + 4*n),
		})
		off += 200
		shardOff += int64(VolumeHeaderBytes + 4*n)
		m.ArchiveBytes += int64(n)
	}
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	c := testVolumeCodec(t)
	m := testManifest(t, c)
	raw, err := MarshalManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "MANIFEST.dvma")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(c); err != nil {
		t.Fatalf("round-tripped manifest fails validation: %v", err)
	}
	if got.ArchiveBytes != m.ArchiveBytes || len(got.Volumes) != len(m.Volumes) {
		t.Fatalf("round trip lost volumes: %+v", got)
	}
	for i := range m.Volumes {
		if got.Volumes[i] != m.Volumes[i] {
			t.Fatalf("volume %d: got %+v want %+v", i, got.Volumes[i], m.Volumes[i])
		}
	}
	// The reconstructed codec must be byte-compatible with the original:
	// same geometry, same seeds, so same strands.
	rc, err := got.Codec()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.EncodeVolume(1, m.VolumeBytes, []byte("manifest codec reconstruction"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rc.EncodeVolume(1, m.VolumeBytes, []byte("manifest codec reconstruction"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("reconstructed codec emits %d strands, original %d", len(s2), len(s1))
	}
	for i := range s1 {
		if !s1[i].Equal(s2[i]) {
			t.Fatalf("strand %d differs between original and manifest-reconstructed codec", i)
		}
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	c := testVolumeCodec(t)
	raw, err := MarshalManifest(testManifest(t, c))
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point must surface ErrManifest, never a partial parse.
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := UnmarshalManifest(raw[:cut]); !errors.Is(err, ErrManifest) {
			t.Fatalf("truncated at %d: got %v, want ErrManifest", cut, err)
		}
	}
	// A flipped payload byte fails the checksum.
	flipped := append([]byte(nil), raw...)
	flipped[20] ^= 0xFF
	if _, err := UnmarshalManifest(flipped); !errors.Is(err, ErrManifest) {
		t.Fatalf("bit flip: got %v, want ErrManifest", err)
	}
	// Wrong magic is rejected before any parsing.
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := UnmarshalManifest(bad); !errors.Is(err, ErrManifest) {
		t.Fatalf("bad magic: got %v, want ErrManifest", err)
	}
}

func TestManifestValidateMismatches(t *testing.T) {
	c := testVolumeCodec(t)
	other, err := NewCodec(Params{N: 12, K: 8, PayloadBytes: 10, Seed: 43, IndexBases: 10})
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, c)
	if err := m.Validate(other); !errors.Is(err, ErrManifest) {
		t.Fatalf("seed mismatch: got %v, want ErrManifest", err)
	}
	// Inconsistent volume tables are rejected at read time too.
	broken := testManifest(t, c)
	broken.Volumes[1].Length = 9999
	if err := broken.Validate(c); !errors.Is(err, ErrManifest) {
		t.Fatalf("oversized volume: got %v, want ErrManifest", err)
	}
	gap := testManifest(t, c)
	gap.ArchiveBytes += 5
	if _, err := UnmarshalManifest(mustMarshal(t, gap)); !errors.Is(err, ErrManifest) {
		t.Fatalf("length-sum mismatch: got %v, want ErrManifest", err)
	}
	shuffled := testManifest(t, c)
	shuffled.Volumes[0].ID = 2
	if _, err := UnmarshalManifest(mustMarshal(t, shuffled)); !errors.Is(err, ErrManifest) {
		t.Fatalf("out-of-order ids: got %v, want ErrManifest", err)
	}
}

func mustMarshal(t *testing.T, m *Manifest) []byte {
	t.Helper()
	raw, err := MarshalManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestManifestRejectsUnrepresentableCodecs(t *testing.T) {
	pairs, err := primer.Design(1, 1, primer.DesignOptions{})
	if err != nil || len(pairs) == 0 {
		t.Fatalf("primer design: %v", err)
	}
	c, err := NewCodec(Params{N: 12, K: 8, PayloadBytes: 10, Seed: 42, IndexBases: 10, Primers: &pairs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManifest(c, 200); !errors.Is(err, ErrManifest) {
		t.Fatalf("primer codec: got %v, want ErrManifest", err)
	}
	if _, err := NewManifest(testVolumeCodec(t), 0); !errors.Is(err, ErrManifest) {
		t.Fatalf("zero volumeBytes: got %v, want ErrManifest", err)
	}
	// A manifest naming an unknown layout cannot rebuild a codec.
	m := testManifest(t, testVolumeCodec(t))
	m.Layout = "mystery"
	if _, err := m.Codec(); !errors.Is(err, ErrManifest) {
		t.Fatalf("unknown layout: got %v, want ErrManifest", err)
	}
}
